"""Reference implementation that the export tests compare chainlens against.

``reference_export_text`` is the annotated-graph export written one dict
per node and per edge: ``_node_attrs`` and ``_edge_attrs`` build the
attribute dicts, DOT and GraphML are formatted line by line from them, and
JSON is ``json.dumps(..., indent=2, sort_keys=True)`` of the two lists.
The columnar renderer in ``chainlens.exports`` must write the same bytes.
"""

import json
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from chainlens.analytics import scope_suppliers
from chainlens.exports import ExportMismatch
from chainlens.graph import ENTITY_TYPE_BY_INDEX, RELATION_BY_INDEX, EntityType, Graph, RelationType

_EDGE_COLOR = {RelationType.SUPPLIES_TO: "orange", RelationType.RELATED_TO: "blue"}


def _node_attrs(graph: Graph, critical_by_label: dict[str, bool]) -> list[dict]:
    sizes = np.bincount(scope_suppliers(graph)[:, 0], minlength=graph.num_entities).tolist()
    types = [ENTITY_TYPE_BY_INDEX[c] for c in graph.type_codes().tolist()]
    supplier_labels = [label for label, t in zip(graph.labels, types) if t is EntityType.SUPPLIER]
    if len(set(supplier_labels)) != len(supplier_labels):
        raise ExportMismatch("duplicate supplier labels make the report join ambiguous")
    missing = sorted(set(supplier_labels) - set(critical_by_label))
    extra = sorted(set(critical_by_label) - set(supplier_labels))
    if missing or extra:
        raise ExportMismatch(
            f"report/graph mismatch: {len(missing)} suppliers missing from the report, "
            f"{len(extra)} report rows not in the graph"
        )

    nodes = []
    for i, (label, etype) in enumerate(zip(graph.labels, types)):
        if etype is EntityType.SUPPLIER:
            color = "red" if critical_by_label[label] else "yellow"
            size = 1
        elif etype is EntityType.BUSINESS_SCOPE:
            color = "purple"
            size = sizes[i]
        else:
            color = "gray"
            size = 1
        nodes.append(
            {
                "id": f"n{i}",
                "label": label,
                "entity_type": etype.value,
                "color": color,
                "size": size,
            }
        )
    return nodes


def _edge_attrs(graph: Graph) -> list[dict]:
    t = graph.triples_array()
    edges = []
    for s, r, o in t[np.lexsort((t[:, 2], t[:, 1], t[:, 0]))].tolist():
        relation = RELATION_BY_INDEX[r]
        edges.append(
            {
                "source": f"n{s}",
                "target": f"n{o}",
                "relation": relation.value,
                "color": _EDGE_COLOR.get(relation, "gray"),
            }
        )
    return edges


def _render_dot(nodes: list[dict], edges: list[dict]) -> str:
    lines = ["digraph chainlens {"]
    for n in nodes:
        label = n["label"].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(
            f'  {n["id"]} [label="{label}", entity_type="{n["entity_type"]}", '
            f'color="{n["color"]}", size="{n["size"]}"];'
        )
    for e in edges:
        lines.append(
            f'  {e["source"]} -> {e["target"]} [relation="{e["relation"]}", color="{e["color"]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_graphml(nodes: list[dict], edges: list[dict]) -> str:
    keys = [
        ("d_label", "node", "label", "string"),
        ("d_type", "node", "entity_type", "string"),
        ("d_color", "node", "color", "string"),
        ("d_size", "node", "size", "double"),
        ("d_rel", "edge", "relation", "string"),
        ("d_ecol", "edge", "color", "string"),
    ]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    for kid, for_, name, typ in keys:
        lines.append(f'  <key id="{kid}" for="{for_}" attr.name="{name}" attr.type="{typ}"/>')
    lines.append('  <graph id="G" edgedefault="directed">')
    for n in nodes:
        lines.append(f'    <node id={quoteattr(n["id"])}>')
        lines.append(f'      <data key="d_label">{escape(n["label"])}</data>')
        lines.append(f'      <data key="d_type">{escape(n["entity_type"])}</data>')
        lines.append(f'      <data key="d_color">{n["color"]}</data>')
        lines.append(f'      <data key="d_size">{n["size"]}</data>')
        lines.append("    </node>")
    for e in edges:
        lines.append(f'    <edge source={quoteattr(e["source"])} target={quoteattr(e["target"])}>')
        lines.append(f'      <data key="d_rel">{escape(e["relation"])}</data>')
        lines.append(f'      <data key="d_ecol">{e["color"]}</data>')
        lines.append("    </edge>")
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def reference_export_text(graph: Graph, critical_by_label: dict[str, bool], fmt: str) -> str:
    """The text ``export_graph(graph, critical_by_label, fmt, path)`` writes to ``path``."""
    nodes = _node_attrs(graph, critical_by_label)
    edges = _edge_attrs(graph)
    if fmt == "dot":
        return _render_dot(nodes, edges)
    if fmt == "graphml":
        return _render_graphml(nodes, edges)
    return json.dumps({"nodes": nodes, "edges": edges}, indent=2, sort_keys=True) + "\n"

"""Annotated graph exports (DOT, GraphML, JSON) for external visualization.

Nodes carry a color class (critical supplier "red", other supplier
"yellow", business scope "purple", everything else "gray") and a size
attribute; a business scope's size is its distinct related-supplier count.
Edges carry their relation name and a color class (supplies_to "orange",
related_to "blue", others "gray").  Output is byte-stable for fixed inputs.

Every format renders straight from the graph's columns, with no per-node
or per-edge objects: a node line from its label, type code, color code and
size, an edge line by filling the (subject, object) ids of its lexsorted
(s, r, o) row into its relation's line template, which already holds the
relation name and color.  Labels are escaped as DOT strings (``\\`` and
``"``), as XML text (``xml.sax.saxutils.escape``) and as ASCII JSON strings
(``json.encoder.encode_basestring_ascii``, the C escaper of ``json.dumps``);
the JSON layout is that of ``json.dumps(..., indent=2, sort_keys=True)``.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .analytics import scope_suppliers
from .graph import ENTITY_TYPE_INDEX, ENTITY_TYPE_NAMES, RELATION_BY_INDEX, EntityType, Graph, RelationType

_RED, _YELLOW, _GRAY, _PURPLE = range(4)
_NODE_COLORS = ("red", "yellow", "gray", "purple")
_EDGE_COLOR = {RelationType.SUPPLIES_TO: "orange", RelationType.RELATED_TO: "blue"}
#: (name, color) of each relation index
_RELATIONS = [(r.value, _EDGE_COLOR.get(r, "gray")) for r in RELATION_BY_INDEX]

_GRAPHML_HEAD = """<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d_label" for="node" attr.name="label" attr.type="string"/>
  <key id="d_type" for="node" attr.name="entity_type" attr.type="string"/>
  <key id="d_color" for="node" attr.name="color" attr.type="string"/>
  <key id="d_size" for="node" attr.name="size" attr.type="double"/>
  <key id="d_rel" for="edge" attr.name="relation" attr.type="string"/>
  <key id="d_ecol" for="edge" attr.name="color" attr.type="string"/>
  <graph id="G" edgedefault="directed">"""


class ExportMismatch(Exception):
    """The criticality report does not line up with the graph's suppliers."""


def _node_columns(graph: Graph, critical_by_label: dict[str, bool]) -> tuple[list[int], list[int], list[int]]:
    """Each node's type code, color code (index into ``_NODE_COLORS``) and size.

    Raises :class:`ExportMismatch` unless the report keys exactly the
    graph's suppliers, each supplier label once.
    """
    codes = graph.type_codes()
    suppliers = np.flatnonzero(codes == ENTITY_TYPE_INDEX[EntityType.SUPPLIER]).tolist()
    supplier_labels = [graph.labels[i] for i in suppliers]
    if len(set(supplier_labels)) != len(supplier_labels):
        raise ExportMismatch("duplicate supplier labels make the report join ambiguous")
    missing = sorted(set(supplier_labels) - set(critical_by_label))
    extra = sorted(set(critical_by_label) - set(supplier_labels))
    if missing or extra:
        raise ExportMismatch(
            f"report/graph mismatch: {len(missing)} suppliers missing from the report, "
            f"{len(extra)} report rows not in the graph"
        )
    scopes = codes == ENTITY_TYPE_INDEX[EntityType.BUSINESS_SCOPE]
    colors = np.where(scopes, _PURPLE, _GRAY)
    colors[suppliers] = [_RED if critical_by_label[label] else _YELLOW for label in supplier_labels]
    sizes = np.where(scopes, np.bincount(scope_suppliers(graph)[:, 0], minlength=len(codes)), 1)
    return codes.tolist(), colors.tolist(), sizes.tolist()


def _render_dot(labels, types, colors, sizes, rows) -> str:
    labels = [label.replace("\\", "\\\\").replace('"', '\\"') for label in labels]
    edge = [f'  n%d -> n%d [relation="{name}", color="{color}"];' for name, color in _RELATIONS]
    lines = ["digraph chainlens {"]
    lines += [
        f'  n{i} [label="{label}", entity_type="{ENTITY_TYPE_NAMES[t]}", color="{_NODE_COLORS[c]}", size="{size}"];'
        for i, (label, t, c, size) in enumerate(zip(labels, types, colors, sizes))
    ]
    lines += [edge[r] % (s, o) for s, r, o in rows]
    lines.append("}\n")
    return "\n".join(lines)


def _render_graphml(labels, types, colors, sizes, rows) -> str:
    type_names = [escape(name) for name in ENTITY_TYPE_NAMES]
    edge = [
        f'    <edge source="n%d" target="n%d">\n      <data key="d_rel">{escape(name)}</data>\n'
        f'      <data key="d_ecol">{color}</data>\n    </edge>'
        for name, color in _RELATIONS
    ]
    lines = [_GRAPHML_HEAD]
    lines += [
        f'    <node id="n{i}">\n      <data key="d_label">{escape(label)}</data>\n'
        f'      <data key="d_type">{type_names[t]}</data>\n      <data key="d_color">{_NODE_COLORS[c]}</data>\n'
        f'      <data key="d_size">{size}</data>\n    </node>'
        for i, (label, t, c, size) in enumerate(zip(labels, types, colors, sizes))
    ]
    lines += [edge[r] % (s, o) for s, r, o in rows]
    lines.append("  </graph>\n</graphml>\n")
    return "\n".join(lines)


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _render_json(labels, types, colors, sizes, rows) -> str:
    type_names = [_json_str(name) for name in ENTITY_TYPE_NAMES]
    edge = [
        f'    {{\n      "color": {_json_str(color)},\n      "relation": {_json_str(name)},\n'
        '      "source": "n%d",\n      "target": "n%d"\n    }'
        for name, color in _RELATIONS
    ]
    nodes = [
        f'    {{\n      "color": "{_NODE_COLORS[c]}",\n      "entity_type": {type_names[t]},\n      "id": "n{i}",\n'
        f'      "label": {_json_str(label)},\n      "size": {size}\n    }}'
        for i, (label, t, c, size) in enumerate(zip(labels, types, colors, sizes))
    ]
    edges = [edge[r] % (s, o) for s, r, o in rows]
    return f'{{\n  "edges": {_json_list(edges)},\n  "nodes": {_json_list(nodes)}\n}}\n'


_RENDERERS = {"dot": _render_dot, "graphml": _render_graphml, "json": _render_json}
FORMATS = tuple(_RENDERERS)


def export_graph(
    graph: Graph,
    critical_by_label: dict[str, bool],
    fmt: str,
    path: str | Path,
) -> None:
    """Write the annotated graph; ``critical_by_label`` keys every supplier label."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    types, colors, sizes = _node_columns(graph, critical_by_label)
    t = graph.triples_array()
    rows = t[np.lexsort((t[:, 2], t[:, 1], t[:, 0]))].tolist()
    text = _RENDERERS[fmt](graph.labels, types, colors, sizes, rows)
    Path(path).write_text(text, encoding="utf-8")

"""Annotated graph exports (DOT, GraphML, JSON) for external visualization.

Nodes carry a color class (critical supplier "red", other supplier
"yellow", business scope "purple", everything else "gray") and a size
attribute; a business scope's size is its distinct related-supplier count.
Edges carry their relation name and a color class (supplies_to "orange",
related_to "blue", others "gray").  Output is byte-stable for fixed inputs.

Every format renders straight from the graph's columns, with no per-node
or per-edge objects.  Edges are ordered by one ``np.argsort`` of the int64
key ``(s * R + r) * N + o`` (triples form a set, so the keys are distinct)
and handed over as three column lists.  A line is a fixed sequence of
pieces: constant strings, and per-row strings taken from columns (a node's
id string, escaped label, type, color and size; an edge's subject and
object id strings, and its relation's head or tail, which already holds
the relation name and color).  Each id's decimal string is built once.
:func:`~chainlens.graph.line_chunks` fills one list for ``CHUNK_ROWS``
lines by one slice assignment per column and joins it with one
``"".join``, so no line is formatted on its own.  The renderers yield those
pieces, and :func:`export_graph` writes each as it arrives: an export holds
one chunk of text at a time, not the file.  Every check that can fail (the
report join, and the labels' characters) runs before the output file is
opened.

Labels are escaped as DOT strings (``\\`` and ``"``), as XML text (``&``,
``<`` and ``>``, as ``xml.sax.saxutils.escape`` does, without importing it)
and as ASCII JSON strings (``json.encoder.encode_basestring_ascii``, the C
escaper of ``json.dumps``); the JSON layout is that of
``json.dumps(..., indent=2, sort_keys=True)``.  GraphML refuses a label
holding a character outside XML 1.0's ``Char`` production, which no
escape can carry, and DOT one that UTF-8 cannot encode (a lone surrogate).
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import numpy as np

from .analytics import scope_suppliers
from .graph import (
    ENTITY_TYPE_INDEX,
    ENTITY_TYPE_NAMES,
    RELATION_BY_INDEX,
    EntityType,
    Graph,
    GraphError,
    RelationType,
    check_utf8_labels,
    line_chunks,
)

_RED, _YELLOW, _GRAY, _PURPLE = range(4)
_NODE_COLORS = ("red", "yellow", "gray", "purple")
_EDGE_COLOR = {RelationType.SUPPLIES_TO: "orange", RelationType.RELATED_TO: "blue"}
#: (name, color) of each relation index
_RELATIONS = [(r.value, _EDGE_COLOR.get(r, "gray")) for r in RELATION_BY_INDEX]
#: a character outside XML 1.0's Char production (https://www.w3.org/TR/xml/#charsets)
_NOT_XML_CHAR = re.compile(r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")

_GRAPHML_HEAD = """<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d_label" for="node" attr.name="label" attr.type="string"/>
  <key id="d_type" for="node" attr.name="entity_type" attr.type="string"/>
  <key id="d_color" for="node" attr.name="color" attr.type="string"/>
  <key id="d_size" for="node" attr.name="size" attr.type="double"/>
  <key id="d_rel" for="edge" attr.name="relation" attr.type="string"/>
  <key id="d_ecol" for="edge" attr.name="color" attr.type="string"/>
  <graph id="G" edgedefault="directed">
"""


class ExportMismatch(Exception):
    """The criticality report does not line up with the graph's suppliers."""


def _node_columns(graph: Graph, critical_by_label: dict[str, bool]) -> tuple[list[int], list[str], list[str]]:
    """Each node's type code, color name and size string.

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
    return codes.tolist(), list(map(_NODE_COLORS.__getitem__, colors.tolist())), list(map(str, sizes.tolist()))


def _edge_columns(graph: Graph, ids: list[str]) -> tuple[list[str], list[int], list[str]]:
    """The triples in (s, r, o) order: subject ids, relation indices and object ids."""
    t = graph.triples_array()
    key = (t[:, 0] * len(RELATION_BY_INDEX) + t[:, 1]) * graph.num_entities + t[:, 2]
    s, r, o = t[np.argsort(key)].T.tolist()
    return list(map(ids.__getitem__, s)), r, list(map(ids.__getitem__, o))


def _check_xml_labels(labels: list[str]) -> None:
    """Raise :class:`GraphError` naming the first label that XML 1.0 cannot carry."""
    if _NOT_XML_CHAR.search("".join(labels)):  # one scan when every label is clean
        label = next(label for label in labels if _NOT_XML_CHAR.search(label))
        raise GraphError(f"label {label!r} cannot be written to GraphML: XML 1.0 cannot carry one of its characters")


def _render_dot(ids, labels, types, colors, sizes, edges):
    s, r, o = edges
    labels = [label.replace("\\", "\\\\").replace('"', '\\"') for label in labels]
    tails = [f' [relation="{name}", color="{color}"];\n' for name, color in _RELATIONS]
    yield "digraph chainlens {\n"
    yield from line_chunks(len(ids), "  n", ids, ' [label="', labels, '", entity_type="',
                           map(ENTITY_TYPE_NAMES.__getitem__, types), '", color="', colors, '", size="', sizes,
                           '"];\n')
    yield from line_chunks(len(r), "  n", s, " -> n", o, map(tails.__getitem__, r))
    yield "}\n"


def _xml_text(text: str) -> str:
    """``text`` escaped as XML character data; ``&`` goes first, so no entity is escaped twice."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _render_graphml(ids, labels, types, colors, sizes, edges):
    s, r, o = edges
    type_names = [_xml_text(name) for name in ENTITY_TYPE_NAMES]
    tails = [
        f'">\n      <data key="d_rel">{_xml_text(name)}</data>\n      <data key="d_ecol">{color}</data>\n    </edge>\n'
        for name, color in _RELATIONS
    ]
    yield _GRAPHML_HEAD
    yield from line_chunks(len(ids), '    <node id="n', ids, '">\n      <data key="d_label">',
                           map(_xml_text, labels), '</data>\n      <data key="d_type">',
                           map(type_names.__getitem__, types), '</data>\n      <data key="d_color">', colors,
                           '</data>\n      <data key="d_size">', sizes, "</data>\n    </node>\n")
    yield from line_chunks(len(r), '    <edge source="n', s, '" target="n', o, map(tails.__getitem__, r))
    yield "  </graph>\n</graphml>\n"


def _json_list(chunks):
    """A JSON array of the items in ``chunks``, each item followed by ``",\\n"``; the last one's comma is dropped."""
    last = None
    for chunk in chunks:
        yield "[\n" if last is None else last
        last = chunk
    yield "[]" if last is None else last[:-2] + "\n  ]"


def _render_json(ids, labels, types, colors, sizes, edges):
    s, r, o = edges
    type_names = [_json_str(name) for name in ENTITY_TYPE_NAMES]
    heads = [
        f'    {{\n      "color": {_json_str(color)},\n      "relation": {_json_str(name)},\n      "source": "n'
        for name, color in _RELATIONS
    ]
    yield '{\n  "edges": '
    yield from _json_list(line_chunks(len(r), map(heads.__getitem__, r), s, '",\n      "target": "n', o,
                                      '"\n    },\n'))
    yield ',\n  "nodes": '
    yield from _json_list(line_chunks(len(ids), '    {\n      "color": "', colors, '",\n      "entity_type": ',
                                      map(type_names.__getitem__, types), ',\n      "id": "n', ids,
                                      '",\n      "label": ', map(_json_str, labels), ',\n      "size": ', sizes,
                                      "\n    },\n"))
    yield "\n}\n"


_RENDERERS = {"dot": _render_dot, "graphml": _render_graphml, "json": _render_json}
FORMATS = tuple(_RENDERERS)


def export_graph(
    graph: Graph,
    critical_by_label: dict[str, bool],
    fmt: str,
    path: str | Path,
) -> None:
    """Write the annotated graph; ``critical_by_label`` keys every supplier label.

    Raises :class:`ExportMismatch` for a report that does not key exactly
    the graph's suppliers, and :class:`GraphError` for a GraphML export of
    a label that XML 1.0 cannot carry or a DOT export of one that UTF-8
    cannot encode, all before ``path`` is opened.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    types, colors, sizes = _node_columns(graph, critical_by_label)
    if fmt == "graphml":
        _check_xml_labels(graph.labels)
    elif fmt == "dot":
        check_utf8_labels(graph.labels, "DOT")
    ids = list(map(str, range(graph.num_entities)))
    pieces = _RENDERERS[fmt](ids, graph.labels, types, colors, sizes, _edge_columns(graph, ids))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)

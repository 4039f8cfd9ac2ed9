import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import chainlens.graph as graph_mod
from chainlens.dataset import GeneratorConfig, generate_synthetic
from chainlens.exports import FORMATS, ExportMismatch, export_graph
from chainlens.graph import DEFAULT_SCHEMA, ENTITY_TYPE_INDEX, EntityType, Graph, GraphError, RelationType

from reference_exports import reference_export_text


def fixture_graph():
    g = Graph()
    crit = g.add_entity("crit", EntityType.SUPPLIER)
    safe = g.add_entity("safe", EntityType.SUPPLIER)
    big = g.add_entity("bigscope", EntityType.BUSINESS_SCOPE)
    small = g.add_entity("smallscope", EntityType.BUSINESS_SCOPE)
    country = g.add_entity("ctry", EntityType.COUNTRY)
    extras = [g.add_entity(f"e{i}", EntityType.SUPPLIER) for i in range(4)]
    g.add_triple(crit, RelationType.SUPPLIES_TO, safe, DEFAULT_SCHEMA)
    for s in [crit, safe] + extras[:3]:
        g.add_triple(s, RelationType.RELATED_TO, big, DEFAULT_SCHEMA)
    g.add_triple(extras[3], RelationType.RELATED_TO, small, DEFAULT_SCHEMA)
    g.add_triple(crit, RelationType.LOCATED_IN, country, DEFAULT_SCHEMA)
    flags = {"crit": True, "safe": False, "e0": False, "e1": False, "e2": False, "e3": False}
    return g, flags


def test_json_export_attributes(tmp_path):
    g, flags = fixture_graph()
    path = tmp_path / "g.json"
    export_graph(g, flags, "json", path)
    data = json.loads(path.read_text())
    nodes = {n["label"]: n for n in data["nodes"]}
    assert nodes["crit"]["color"] == "red"
    assert nodes["safe"]["color"] == "yellow"
    assert nodes["bigscope"]["color"] == "purple"
    assert nodes["ctry"]["color"] == "gray"
    assert nodes["bigscope"]["size"] == 5
    assert nodes["smallscope"]["size"] == 1
    edges = {(e["source"], e["target"]): e for e in data["edges"]}
    supply = next(e for e in data["edges"] if e["relation"] == "supplies_to")
    related = next(e for e in data["edges"] if e["relation"] == "related_to")
    located = next(e for e in data["edges"] if e["relation"] == "located_in")
    assert supply["color"] == "orange"
    assert related["color"] == "blue"
    assert located["color"] == "gray"


def test_dot_export_attributes_and_determinism(tmp_path):
    g, flags = fixture_graph()
    p1, p2 = tmp_path / "a.dot", tmp_path / "b.dot"
    export_graph(g, flags, "dot", p1)
    export_graph(g, flags, "dot", p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("digraph chainlens {")
    assert 'label="crit", entity_type="Supplier", color="red"' in text
    assert 'color="orange"' in text


def test_graphml_export_parses_and_carries_attributes(tmp_path):
    g, flags = fixture_graph()
    path = tmp_path / "g.graphml"
    export_graph(g, flags, "graphml", path)
    root = ET.parse(path).getroot()
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    nodes = root.findall(".//g:node", ns)
    assert len(nodes) == g.num_entities
    colors = [d.text for d in root.findall(".//g:node/g:data[@key='d_color']", ns)]
    assert "red" in colors and "purple" in colors
    edges = root.findall(".//g:edge", ns)
    assert len(edges) == g.num_triples


def test_export_mismatch_missing_supplier(tmp_path):
    g, flags = fixture_graph()
    del flags["safe"]
    with pytest.raises(ExportMismatch):
        export_graph(g, flags, "json", tmp_path / "g.json")


def test_export_mismatch_extra_row(tmp_path):
    g, flags = fixture_graph()
    flags["ghost"] = True
    with pytest.raises(ExportMismatch):
        export_graph(g, flags, "dot", tmp_path / "g.dot")


def test_export_rejects_unknown_format(tmp_path):
    g, flags = fixture_graph()
    with pytest.raises(ValueError):
        export_graph(g, flags, "svg", tmp_path / "g.svg")


def assert_export_equals_reference(tmp_path, graph, flags, fmt):
    path = tmp_path / f"g.{fmt}"
    export_graph(graph, flags, fmt, path)
    np.testing.assert_equal(path.read_bytes(), reference_export_text(graph, flags, fmt).encode("utf-8"))
    return path


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_export_equals_reference_on_generated_graphs(tmp_path, seed, fmt):
    graph = generate_synthetic(GeneratorConfig(seed=seed))
    suppliers = np.flatnonzero(graph.type_codes() == ENTITY_TYPE_INDEX[EntityType.SUPPLIER])
    critical = np.random.default_rng(seed).random(len(suppliers)) < 0.3
    flags = {graph.labels[i]: bool(c) for i, c in zip(suppliers.tolist(), critical.tolist())}
    assert_export_equals_reference(tmp_path, graph, flags, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_of_an_empty_graph_equals_reference(tmp_path, fmt):
    path = assert_export_equals_reference(tmp_path, Graph(), {}, fmt)
    if fmt == "json":
        assert path.read_text() == '{\n  "edges": [],\n  "nodes": []\n}\n'


AWKWARD_LABELS = ['Zürich "Süd" GmbH', "back\\slash \\\"", "<b>A&B</b> > C", "東京 \U0001F69A", "tab\tline\nbreak\x01"]
#: the awkward labels without the one character (U+0001) that XML 1.0 cannot carry
XML_LABELS = [label.replace("\x01", "") for label in AWKWARD_LABELS]


def awkward_graph(labels):
    g = Graph()
    sups = [g.add_entity(label, EntityType.SUPPLIER) for label in labels]
    scope = g.add_entity("Scope <&> \"x\"", EntityType.BUSINESS_SCOPE)
    g.add_entity("empty & unrelated scope", EntityType.BUSINESS_SCOPE)
    country = g.add_entity("Côte d'Ivoire", EntityType.COUNTRY)
    for s, o in zip(sups, sups[1:]):
        g.add_triple(s, RelationType.SUPPLIES_TO, o, DEFAULT_SCHEMA)
    for s in sups[:3]:
        g.add_triple(s, RelationType.RELATED_TO, scope, DEFAULT_SCHEMA)
    g.add_triple(sups[0], RelationType.LOCATED_IN, country, DEFAULT_SCHEMA)
    return g, {label: i % 2 == 0 for i, label in enumerate(labels)}


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_escapes_labels_as_reference(tmp_path, fmt):
    g, flags = awkward_graph(AWKWARD_LABELS)
    if fmt == "graphml":  # XML 1.0 cannot carry U+0001; GraphML refuses the label before opening the file
        with pytest.raises(GraphError, match=re.escape(repr(AWKWARD_LABELS[-1]))):
            export_graph(g, flags, fmt, tmp_path / "g.graphml")
        assert not (tmp_path / "g.graphml").exists()
        return
    path = assert_export_equals_reference(tmp_path, g, flags, fmt)
    if fmt == "json":
        assert [n["label"] for n in json.loads(path.read_text())["nodes"]] == g.labels


def test_graphml_escapes_labels_as_reference(tmp_path):
    g, flags = awkward_graph(XML_LABELS)
    path = assert_export_equals_reference(tmp_path, g, flags, "graphml")
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    labels = [d.text for d in ET.parse(path).getroot().findall(".//g:node/g:data[@key='d_label']", ns)]
    assert labels == g.labels


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x1f", "\ud800", "\ufffe", "\uffff"])
def test_graphml_refuses_a_label_xml_cannot_carry_before_opening_the_file(tmp_path, char):
    g = Graph()
    acme = g.add_entity(f"Acme{char}Corp", EntityType.SUPPLIER)
    g.add_triple(acme, RelationType.SUPPLIES_TO, g.add_entity("Beta", EntityType.SUPPLIER), DEFAULT_SCHEMA)
    flags = {f"Acme{char}Corp": True, "Beta": False}
    path = tmp_path / "g.graphml"
    path.write_text("kept")
    with pytest.raises(GraphError, match=re.escape(repr(f"Acme{char}Corp"))):
        export_graph(g, flags, "graphml", path)
    assert path.read_text() == "kept"


@pytest.mark.parametrize("label", ["sup\ud800", "\udfff", "a\ud83d"])
def test_dot_refuses_a_label_utf8_cannot_encode_before_opening_the_file_and_json_escapes_it(tmp_path, label):
    g = Graph()
    acme = g.add_entity(label, EntityType.SUPPLIER)
    g.add_triple(acme, RelationType.SUPPLIES_TO, g.add_entity("Beta", EntityType.SUPPLIER), DEFAULT_SCHEMA)
    flags = {label: True, "Beta": False}
    path = tmp_path / "g.dot"
    path.write_text("kept")
    with pytest.raises(GraphError, match=re.escape(repr(label)) + ".*UTF-8 cannot encode it"):
        export_graph(g, flags, "dot", path)
    assert path.read_text() == "kept"
    export_graph(g, flags, "json", tmp_path / "g.json")
    assert [n["label"] for n in json.loads((tmp_path / "g.json").read_text())["nodes"]] == [label, "Beta"]


@pytest.mark.parametrize("char", ["\t", "\n", "\r", " ", "\ud7ff", "\ue000", "\ufffd", "\U00010000", "\U0010ffff"])
def test_graphml_writes_every_xml_char_as_reference(tmp_path, char):
    g, flags = awkward_graph([f"Acme{char}Corp", "Beta"])
    assert_export_equals_reference(tmp_path, g, flags, "graphml")


def chain_graph(edges):
    """``edges`` + 1 suppliers, a scope and a country; edge i leaves supplier i by supplies_to,
    related_to or located_in in turn, so consecutive edges differ in relation."""
    g = Graph()
    sups = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(edges + 1)]
    scope = g.add_entity("scope", EntityType.BUSINESS_SCOPE)
    country = g.add_entity("country", EntityType.COUNTRY)
    for i in range(edges):
        relation, o = [(RelationType.SUPPLIES_TO, sups[i + 1]), (RelationType.RELATED_TO, scope),
                       (RelationType.LOCATED_IN, country)][i % 3]
        g.add_triple(sups[i], relation, o, DEFAULT_SCHEMA)
    return g, {f"s{i}": i % 2 == 0 for i in range(edges + 1)}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_export_equals_reference_across_chunk_boundaries(tmp_path, monkeypatch, chunk, fmt):
    monkeypatch.setattr(graph_mod, "CHUNK_ROWS", chunk)
    for edges in sorted({0, 1, chunk, chunk + 1}):
        g, flags = chain_graph(edges)
        assert g.num_triples == edges
        assert_export_equals_reference(tmp_path, g, flags, fmt)
    assert_export_equals_reference(tmp_path, Graph(), {}, fmt)
    g, flags = awkward_graph(XML_LABELS if fmt == "graphml" else AWKWARD_LABELS)
    assert_export_equals_reference(tmp_path, g, flags, fmt)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlens.graph as graph_mod
from chainlens.graph import (
    DEFAULT_SCHEMA,
    ENTITY_TYPE_INDEX,
    RELATION_INDEX,
    DuplicateTriple,
    EntityType,
    Graph,
    RelationType,
    Schema,
    SchemaError,
    SchemaViolation,
    UnknownEntity,
    line_chunks,
    run_starts,
    sorted_unique,
)

from conftest import random_typed_graph, supplier_chain, write_schema
from reference_writer import label_triples


def test_add_entity_assigns_fresh_dense_ids():
    g = Graph()
    a = g.add_entity("ACME Corp", EntityType.SUPPLIER)
    b = g.add_entity("ACME Corp", EntityType.SUPPLIER)  # duplicate labels allowed
    assert (a, b) == (0, 1)
    assert g.entity_type(a) is EntityType.SUPPLIER
    assert g.num_entities == 2


def test_stats_full_scale_supplier_count():
    g = Graph()
    for i in range(61_234):
        g.add_entity(f"sup{i}", EntityType.SUPPLIER)
    st_ = g.stats()
    assert st_.entity_counts[EntityType.SUPPLIER] == 61_234
    assert st_.total_entities == 61_234


def test_add_triple_schema_enforcement():
    g = Graph()
    s1 = g.add_entity("s1", EntityType.SUPPLIER)
    s2 = g.add_entity("s2", EntityType.SUPPLIER)
    country = g.add_entity("c", EntityType.COUNTRY)
    g.add_triple(s1, RelationType.SUPPLIES_TO, s2, DEFAULT_SCHEMA)
    assert g.has_triple(s1, RelationType.SUPPLIES_TO, s2)
    with pytest.raises(SchemaViolation):
        g.add_triple(country, RelationType.SUPPLIES_TO, s2, DEFAULT_SCHEMA)
    smelter = g.add_entity("sm", EntityType.SMELTER)
    g.add_triple(smelter, RelationType.SUPPLIES_TO, s1, DEFAULT_SCHEMA)  # smelters may supply


def test_duplicate_triple_is_rejected_without_mutation():
    g = Graph()
    a = g.add_entity("a", EntityType.SUPPLIER)
    b = g.add_entity("b", EntityType.SUPPLIER)
    g.add_triple(a, RelationType.SUPPLIES_TO, b, DEFAULT_SCHEMA)
    with pytest.raises(DuplicateTriple):
        g.add_triple(a, RelationType.SUPPLIES_TO, b, DEFAULT_SCHEMA)
    assert g.num_triples == 1


def test_add_triple_unknown_entity():
    g = Graph()
    a = g.add_entity("a", EntityType.SUPPLIER)
    with pytest.raises(UnknownEntity):
        g.add_triple(a, RelationType.SUPPLIES_TO, 99, DEFAULT_SCHEMA)


def test_validate_flags_injected_violation():
    g = Graph()
    country = g.add_entity("c", EntityType.COUNTRY)
    sup = g.add_entity("s", EntityType.SUPPLIER)
    assert g.validate(DEFAULT_SCHEMA).ok
    bad = (country, RELATION_INDEX[RelationType.SUPPLIES_TO], sup)
    g = Graph(g.labels, g.type_codes(), [bad])  # write the row into the column, unchecked
    report = g.validate(DEFAULT_SCHEMA)
    assert report.schema_violations.tolist() == [list(bad)]
    assert not len(report.dangling)


def test_validate_flags_dangling_reference():
    g = Graph()
    g.add_entity("s", EntityType.SUPPLIER)
    bad = (0, RELATION_INDEX[RelationType.SUPPLIES_TO], 7)
    g = Graph(g.labels, g.type_codes(), [bad])  # write the row into the column, unchecked
    report = g.validate(DEFAULT_SCHEMA)
    assert report.dangling.tolist() == [list(bad)]


def test_neighbors_directions_and_filter():
    g = Graph()
    c = g.add_entity("center", EntityType.SUPPLIER)
    leaves = [g.add_entity(f"l{i}", EntityType.SUPPLIER) for i in range(3)]
    for leaf in leaves:
        g.add_triple(leaf, RelationType.SUPPLIES_TO, c, DEFAULT_SCHEMA)
    scope = g.add_entity("scope", EntityType.BUSINESS_SCOPE)
    g.add_triple(c, RelationType.RELATED_TO, scope, DEFAULT_SCHEMA)
    assert g.neighbors(c, "in") == [(l, RelationType.SUPPLIES_TO) for l in leaves]
    assert g.neighbors(c, "out") == [(scope, RelationType.RELATED_TO)]
    assert g.neighbors(leaves[0], "out", predicate=RelationType.RELATED_TO) == []
    lonely = g.add_entity("lonely", EntityType.SUPPLIER)
    assert g.neighbors(lonely) == []
    with pytest.raises(UnknownEntity):
        g.neighbors(999)


def test_neighbors_out_filter_counts():
    g = Graph()
    s = g.add_entity("s", EntityType.SUPPLIER)
    others = [g.add_entity(f"o{i}", EntityType.SUPPLIER) for i in range(3)]
    scopes = [g.add_entity(f"b{i}", EntityType.BUSINESS_SCOPE) for i in range(2)]
    for o in others:
        g.add_triple(s, RelationType.SUPPLIES_TO, o, DEFAULT_SCHEMA)
    for b in scopes:
        g.add_triple(s, RelationType.RELATED_TO, b, DEFAULT_SCHEMA)
    out = g.neighbors(s, "out", predicate=RelationType.SUPPLIES_TO)
    assert sorted(n for n, _ in out) == sorted(others)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_neighbors_both_is_union_of_in_and_out(seed):
    g = random_typed_graph(np.random.default_rng(seed), 12, 25)
    for e in range(g.num_entities):
        both = g.neighbors(e, "both")
        merged = sorted(
            g.neighbors(e, "out") + g.neighbors(e, "in"),
            key=lambda p: (p[0], list(RelationType).index(p[1])),
        )
        assert both == merged


def test_project_subgraph_supplier_network(default_graph):
    sub = default_graph.project_subgraph({EntityType.SUPPLIER}, {RelationType.SUPPLIES_TO})
    assert (sub.type_codes() == ENTITY_TYPE_INDEX[EntityType.SUPPLIER]).all()
    assert (sub.triples_array()[:, 1] == RELATION_INDEX[RelationType.SUPPLIES_TO]).all()
    # smelter-sourced supplies_to edges are dropped with their endpoint
    full = default_graph.stats()
    spo, codes = default_graph.triples_array(), default_graph.type_codes()
    n_smelter_edges = int(((spo[:, 1] == RELATION_INDEX[RelationType.SUPPLIES_TO])
                           & (codes[spo[:, 0]] == ENTITY_TYPE_INDEX[EntityType.SMELTER])).sum())
    assert sub.num_triples == full.relation_counts[RelationType.SUPPLIES_TO] - n_smelter_edges
    assert sub.validate(DEFAULT_SCHEMA).ok


def test_project_subgraph_identity():
    g = supplier_chain(5)
    same = g.project_subgraph(set(EntityType), set(RelationType))
    assert label_triples(same) == label_triples(g)
    assert same.num_entities == g.num_entities


def test_project_subgraph_no_legal_triples():
    g = Graph()
    s1 = g.add_entity("s1", EntityType.SUPPLIER)
    s2 = g.add_entity("s2", EntityType.SUPPLIER)
    c = g.add_entity("c", EntityType.COUNTRY)
    g.add_triple(s1, RelationType.SUPPLIES_TO, s2, DEFAULT_SCHEMA)
    g.add_triple(s1, RelationType.LOCATED_IN, c, DEFAULT_SCHEMA)
    sub = g.project_subgraph({EntityType.COUNTRY}, {RelationType.SUPPLIES_TO})
    assert sub.num_entities == 1
    assert sub.num_triples == 0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_projection_soundness_and_completeness(seed):
    rng = np.random.default_rng(seed)
    g = random_typed_graph(rng, 15, 30)
    keep_types = {EntityType.SUPPLIER, EntityType.COUNTRY, EntityType.BUSINESS_SCOPE}
    keep_rels = {RelationType.SUPPLIES_TO, RelationType.LOCATED_IN, RelationType.RELATED_TO}
    sub = g.project_subgraph(keep_types, keep_rels)
    sub_set = set(label_triples(sub))
    full_set = set(label_triples(g))
    assert sub_set <= full_set
    expected = {
        row
        for row in full_set
        if RelationType(row[2]) in keep_rels
        and EntityType(row[1]) in keep_types
        and EntityType(row[4]) in keep_types
    }
    assert sub_set == expected


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_stats_totals_are_consistent(seed):
    g = random_typed_graph(np.random.default_rng(seed), 20, 40)
    s = g.stats()
    assert sum(s.entity_counts.values()) == s.total_entities == g.num_entities
    assert sum(s.relation_counts.values()) == s.total_triples == g.num_triples


def test_stats_empty_graph():
    s = Graph().stats()
    assert s.total_entities == 0 and s.total_triples == 0
    assert not s.entity_counts and not s.relation_counts


def test_schema_file_round_trip(tmp_path):
    path = tmp_path / "schema.tsv"
    write_schema(DEFAULT_SCHEMA, path)
    loaded = Schema.from_file(path)
    assert loaded.rules == DEFAULT_SCHEMA.rules


def test_schema_missing_relation_rejected(tmp_path):
    path = tmp_path / "schema.tsv"
    lines = [
        f"{rel.value}\tSupplier\tSupplier"
        for rel in list(RelationType)[:-1]  # drop one relation
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError):
        Schema.from_file(path)


def test_schema_empty_types_rejected():
    rules = dict(DEFAULT_SCHEMA.rules)
    rules[RelationType.REFINES] = (frozenset(), frozenset({EntityType.SUBSTANCE}))
    with pytest.raises(SchemaError):
        Schema(rules)


def test_triples_array_is_the_stored_read_only_column():
    g = supplier_chain(4)
    first = g.triples_array()
    assert g.triples_array() is first
    with pytest.raises(ValueError):
        first[0, 0] = 3
    assert g.triples_array()[0, 0] == 0
    g.add_triple(3, RelationType.SUPPLIES_TO, 0, DEFAULT_SCHEMA)
    grown = g.triples_array()
    assert grown is not first and grown.shape == (4, 3) and not grown.flags.writeable
    assert tuple(grown[-1]) == (3, 0, 0)
    assert g.triples_array() is grown


def test_graph_from_columns_is_unchecked_and_consistent():
    g = supplier_chain(3)
    copy = Graph(g.labels, g.type_codes(), g.triples_array())
    assert label_triples(copy) == label_triples(g)
    assert copy.has_triple(0, RelationType.SUPPLIES_TO, 1)
    with pytest.raises(DuplicateTriple):
        copy.add_triple(0, RelationType.SUPPLIES_TO, 1, DEFAULT_SCHEMA)
    assert copy.vocabulary_sha256() == g.vocabulary_sha256()
    swapped = Graph(["s1", "s0", "s2"], g.type_codes(), g.triples_array())
    assert swapped.vocabulary_sha256() != g.vocabulary_sha256()


# -- chunked lines -----------------------------------------------------------

@pytest.mark.parametrize("chunk", [1, 2, 3, graph_mod.CHUNK_ROWS])
def test_line_chunks_join_the_parts_of_each_row(monkeypatch, chunk):
    monkeypatch.setattr(graph_mod, "CHUNK_ROWS", chunk)
    for n in range(5):
        names = [f"n{i}" for i in range(n)]
        pieces = list(line_chunks(n, "<", names, ",", map(str, range(n)), ">\n"))
        assert len(pieces) == -(-n // chunk)
        assert "".join(pieces) == "".join(f"<n{i},{i}>\n" for i in range(n))


@pytest.mark.parametrize("rows", [2, 4])
def test_line_chunks_refuse_a_part_of_another_length(rows):
    with pytest.raises(ValueError):
        list(line_chunks(3, "x", ["a"] * 3, ["b"] * rows))


# -- sort-based unique --------------------------------------------------------

@pytest.mark.parametrize("keys", [[], [7], [3, 3, 3, 3], [-2, 5, -2, 0, 5]])
def test_sorted_unique_cases(keys):
    keys = np.array(keys, dtype=np.int64)
    got = sorted_unique(keys)
    assert got.dtype == np.int64 and got.tolist() == np.unique(keys).tolist()
    ordered = np.sort(keys)
    assert run_starts(ordered).tolist() == [i == 0 or ordered[i] != ordered[i - 1] for i in range(ordered.size)]


@pytest.mark.parametrize("seed", range(8))
def test_sorted_unique_equals_np_unique_on_random_int64(seed):
    rng = np.random.default_rng(seed)
    high = [2, 50, 10**6, 2**62][seed % 4]
    keys = rng.integers(-high, high, size=int(rng.integers(1, 5000)), dtype=np.int64)
    before = keys.copy()
    np.testing.assert_array_equal(sorted_unique(keys), np.unique(keys))
    np.testing.assert_array_equal(keys, before)  # the input is not sorted in place

"""The triple writer against the tuple-sorting writer in ``reference_writer``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlens.graph as graph_mod
from chainlens.dataset import SplitResult, export_triples, load_triples, write_split
from chainlens.graph import (
    DEFAULT_SCHEMA,
    ENTITY_TYPE_NAMES,
    RELATION_BY_INDEX,
    EntityType,
    Graph,
    GraphError,
    RelationType,
)

from reference_writer import label_triples, reference_write_triples

#: Labels whose (label, type) order differs from the order of their joined lines ("A" and "A\x01"), labels with
#: NUL, non-ASCII and astral characters, and a ``#`` label, which only an object may carry.
LABELS = ["A", "A\x01", "A\x00", "A\x08", "A ", "AB", "a", "B", "\xe9", "e\u0301", "Zürich", "北京工厂",
          "\U0001d538", "\U0001d538x", "\uffff", "nul\x00", "#x"]
SPLIT_FILES = ["train.tsv", "valid.tsv", "test.tsv"]


def refusal(write):
    """The message of the ``GraphError`` that ``write()`` raised, or None if it raised none."""
    try:
        write()
    except GraphError as exc:
        return str(exc)
    return None


@st.composite
def graphs_and_parts(draw):
    """A graph over a few drawn (label, type) entities, equal ones allowed, and each row's split part."""
    entities = draw(st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(range(len(ENTITY_TYPE_NAMES)))),
                             min_size=1, max_size=10))
    ids, relations = st.integers(0, len(entities) - 1), st.integers(0, len(RELATION_BY_INDEX) - 1)
    rows = draw(st.lists(st.tuples(ids, relations, ids), unique=True, max_size=30))
    parts = draw(st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows)))
    graph = Graph([label for label, _ in entities], [code for _, code in entities], rows)
    return graph, np.array(parts, dtype=np.int64)


@given(case=graphs_and_parts(), chunk=st.sampled_from([1, 2, 3, graph_mod.CHUNK_ROWS]))
@settings(deadline=None)
def test_writer_equals_reference(tmp_path_factory, case, chunk):
    graph, parts = case
    out = tmp_path_factory.mktemp("writer")
    (out / "reference").mkdir()
    spo = graph.triples_array()
    result = SplitResult(*(spo[parts == k] for k in range(3)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod, "CHUNK_ROWS", chunk)
        refused = refusal(lambda: export_triples(graph, out / "graph.tsv"))
        assert refused == refusal(lambda: reference_write_triples(graph, spo, out / "reference" / "graph.tsv"))
        if refused is None:
            assert (out / "graph.tsv").read_bytes() == (out / "reference" / "graph.tsv").read_bytes()
        else:
            assert not (out / "graph.tsv").exists()
        # the parts hold every row of the graph, so the split is refused as the graph is, before any file is written
        assert refusal(lambda: write_split(graph, result, out / "split")) == refused
    if refused is not None:
        assert not (out / "split").exists()
        return
    for name, part in zip(SPLIT_FILES, (result.train_ids, result.validation_ids, result.test_ids)):
        reference_write_triples(graph, part, out / "reference" / name)
        assert (out / "split" / name).read_bytes() == (out / "reference" / name).read_bytes()


def supplier_graph(labels, edges):
    g = Graph()
    ids = [g.add_entity(label, EntityType.SUPPLIER) for label in labels]
    for s, o in edges:
        g.add_triple(ids[s], RelationType.SUPPLIES_TO, ids[o], DEFAULT_SCHEMA)
    return g


def triple_lines(path):
    return path.read_text(encoding="utf-8").splitlines()[1:]


def test_writer_orders_lines_by_label_then_type_not_by_joined_text(tmp_path):
    # "A\x01\tSupplier" sorts before "A\tSupplier" as text, since "\x01" < "\t"; ("A", ...) < ("A\x01", ...) as tuples
    g = supplier_graph(["A\x01", "A", "B"], [(0, 2), (1, 2)])
    export_triples(g, tmp_path / "g.tsv")
    assert triple_lines(tmp_path / "g.tsv") == ["A\tSupplier\tsupplies_to\tB\tSupplier",
                                                "A\x01\tSupplier\tsupplies_to\tB\tSupplier"]


def test_writer_orders_the_lines_of_entities_with_equal_label_and_type_by_the_rest_of_the_line(tmp_path):
    g = supplier_graph(["X", "Z", "X", "Y"], [(0, 1), (2, 3)])
    export_triples(g, tmp_path / "g.tsv")
    assert triple_lines(tmp_path / "g.tsv") == ["X\tSupplier\tsupplies_to\tY\tSupplier",
                                                "X\tSupplier\tsupplies_to\tZ\tSupplier"]
    assert label_triples(load_triples(tmp_path / "g.tsv")) == label_triples(g)


def test_split_parts_with_no_rows_hold_the_header_line(tmp_path):
    g = supplier_graph(["A", "B"], [(0, 1)])
    spo = g.triples_array()
    write_split(g, SplitResult(spo, spo[:0], spo[:0]), tmp_path)
    header = "# subject\tsubject_type\tpredicate\tobject\tobject_type\n"
    assert (tmp_path / "train.tsv").read_text() == header + "A\tSupplier\tsupplies_to\tB\tSupplier\n"
    assert (tmp_path / "valid.tsv").read_text() == (tmp_path / "test.tsv").read_text() == header

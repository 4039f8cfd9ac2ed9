from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import chainlens.dataset as dataset_mod
from chainlens.dataset import GeneratorConfig, SplitConfig, generate_synthetic, transductive_split
from chainlens.graph import DEFAULT_SCHEMA, ENTITY_TYPE_INDEX, EntityType, Graph, RelationType

# A larger fuzz budget for the property tests that leave max_examples at its
# default (the reader and the writer against their references, the gradient
# scatter against np.add.at, score_batch against score_objects and the exact
# score written out, the training forward pass against the score formulas,
# the screened ranks against float64 ranks, each screen's worst-case search,
# the centralities and triangles against their references, the filter index
# against a brute-force lookup):
# pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=2_000)


def pytest_collection_modifyitems(items):
    """numpy's floating-point warnings (overflow, an invalid value, a division by zero) fail the tests here, so
    that a NaN or an inf a computation meets is not passed on as a number.  Only this directory's tests: the
    benchmark harness's own tests run as before."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


def write_schema(schema, path) -> None:
    """Write ``schema`` in the format ``Schema.from_file`` reads."""
    lines = ["# relation\tsource_types\ttarget_types"]
    for rel in RelationType:
        src, tgt = schema.rules[rel]
        names = [",".join(sorted(t.value for t in types)) for types in (src, tgt)]
        lines.append("\t".join([rel.value, *names]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(autouse=True)
def no_kept_parses(monkeypatch):
    """Each test starts with no parse kept from another test's reads."""
    monkeypatch.setattr(dataset_mod, "_views", ())


@pytest.fixture(scope="session")
def default_graph():
    return generate_synthetic(GeneratorConfig())


@pytest.fixture(scope="session")
def default_split(default_graph):
    return transductive_split(default_graph, SplitConfig(0.1, 0.1, seed=1))


@pytest.fixture(scope="session")
def default_split_arrays(default_split):
    return default_split.train_ids, default_split.validation_ids, default_split.test_ids


def supplier_chain(n: int) -> Graph:
    """A directed supplies_to path s0 -> s1 -> ... -> s(n-1)."""
    g = Graph()
    ids = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(n)]
    for a, b in zip(ids, ids[1:]):
        g.add_triple(a, RelationType.SUPPLIES_TO, b, DEFAULT_SCHEMA)
    return g


def random_supplier_graph(rng: np.random.Generator, n_nodes: int, n_edges: int) -> Graph:
    """Random simple digraph over Supplier nodes with supplies_to edges."""
    g = Graph()
    ids = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(n_nodes)]
    seen = set()
    tries = 0
    while len(seen) < n_edges and tries < 50 * n_edges:
        tries += 1
        a, b = int(rng.integers(n_nodes)), int(rng.integers(n_nodes))
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        g.add_triple(ids[a], RelationType.SUPPLIES_TO, ids[b], DEFAULT_SCHEMA)
    return g


def random_typed_graph(rng: np.random.Generator, n_entities: int, n_triples: int) -> Graph:
    """Random schema-legal graph touching several entity and relation types."""
    g = Graph()
    type_cycle = list(EntityType)
    for i in range(n_entities):
        et = type_cycle[int(rng.integers(len(type_cycle)))]
        g.add_entity(f"e{i}", et)
    by_type = {et: np.flatnonzero(g.type_codes() == ENTITY_TYPE_INDEX[et]).tolist() for et in EntityType}
    added = 0
    tries = 0
    rels = list(RelationType)
    while added < n_triples and tries < 100 * n_triples:
        tries += 1
        rel = rels[int(rng.integers(len(rels)))]
        srcs = [e for t in DEFAULT_SCHEMA.source_types(rel) for e in by_type[t]]
        tgts = [e for t in DEFAULT_SCHEMA.target_types(rel) for e in by_type[t]]
        if not srcs or not tgts:
            continue
        s = srcs[int(rng.integers(len(srcs)))]
        o = tgts[int(rng.integers(len(tgts)))]
        if s == o or g.has_triple(s, rel, o):
            continue
        g.add_triple(s, rel, o, DEFAULT_SCHEMA)
        added += 1
    return g

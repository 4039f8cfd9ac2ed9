from collections import deque
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlens import analytics
from chainlens.analytics import (
    METRIC_NAMES,
    betweenness,
    closeness,
    count_critical_paths,
    criticality,
    critical_paths,
    degree_centrality,
    normalize,
    shortest_path_centralities,
    sole_supplier_scopes,
    triangle_count,
)
from chainlens.graph import DEFAULT_SCHEMA, RELATION_INDEX, EntityType, Graph, RelationType, Schema

from conftest import random_supplier_graph, random_typed_graph, supplier_chain
from reference_analytics import critical_paths as depth_first_critical_paths
from reference_analytics import two_sweep_centralities, unique_frontier_bfs_levels


# -- brute-force oracles -----------------------------------------------------

def _adj_sets(graph):
    succ = [set() for _ in range(graph.num_entities)]
    for s, _, o in graph.triples_array().tolist():
        if s != o:
            succ[s].add(o)
    return succ


def bfs_distances(succ, source):
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def brute_betweenness(graph):
    """Count shortest s->t paths through v via path-count products.

    Independent of Brandes' dependency accumulation: computes sigma(s, t)
    and sigma(s, v) * sigma(v, t) directly from per-source BFS DAGs.
    """
    n = graph.num_entities
    succ = _adj_sets(graph)
    dist = [bfs_distances(succ, s) for s in range(n)]
    sigma = np.zeros((n, n))
    for s in range(n):
        order = sorted(dist[s], key=dist[s].get)
        counts = {s: 1.0}
        for v in order:
            for w in succ[v]:
                if dist[s].get(w, -1) == dist[s][v] + 1:
                    counts[w] = counts.get(w, 0.0) + counts[v]
        for v, c in counts.items():
            sigma[s, v] = c
    acc = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if s == t or t not in dist[s]:
                continue
            for v in range(n):
                if v in (s, t) or v not in dist[s] or t not in dist[v]:
                    continue
                if dist[s][v] + dist[v][t] == dist[s][t]:
                    acc[v] += sigma[s, v] * sigma[v, t] / sigma[s, t]
    return acc


def brute_closeness(graph):
    n = graph.num_entities
    succ = _adj_sets(graph)
    out = np.zeros(n)
    for u in range(n):
        dist = bfs_distances(succ, u)
        reached = len(dist) - 1
        total = sum(dist.values())
        if reached > 0 and n > 1:
            out[u] = (reached / total) * (reached / (n - 1))
    return out


def brute_triangles(graph):
    n = graph.num_entities
    und = [set() for _ in range(n)]
    for s, _, o in graph.triples_array().tolist():
        if s != o:
            und[s].add(o)
            und[o].add(s)
    counts = np.zeros(n, dtype=int)
    for a, b, c in combinations(range(n), 3):
        if b in und[a] and c in und[a] and c in und[b]:
            counts[a] += 1
            counts[b] += 1
            counts[c] += 1
    return counts


def random_dag(rng, n_nodes, n_edges):
    g = Graph()
    ids = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(n_nodes)]
    seen = set()
    tries = 0
    while len(seen) < n_edges and tries < 50 * n_edges:
        tries += 1
        a, b = sorted(rng.integers(n_nodes, size=2).tolist())
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        g.add_triple(ids[a], RelationType.SUPPLIES_TO, ids[b], DEFAULT_SCHEMA)
    return g


# -- degree ------------------------------------------------------------------

def test_degree_on_path():
    g = supplier_chain(3)
    in_deg, out_deg = degree_centrality(g)
    assert list(in_deg) == [0, 1, 1]
    assert list(out_deg) == [1, 1, 0]


def test_degree_isolated_node():
    g = Graph()
    g.add_entity("alone", EntityType.SUPPLIER)
    in_deg, out_deg = degree_centrality(g)
    assert list(in_deg) == [0] and list(out_deg) == [0]


def test_degree_counts_parallel_relations():
    g = Graph()
    s = g.add_entity("s", EntityType.SUPPLIER)
    c = g.add_entity("c", EntityType.COUNTRY)
    g.add_triple(s, RelationType.LOCATED_IN, c, DEFAULT_SCHEMA)
    g.add_triple(s, RelationType.BELONGS_TO, c, DEFAULT_SCHEMA)
    in_deg, out_deg = degree_centrality(g)
    assert in_deg[c] == 2 and out_deg[s] == 2


# -- betweenness -------------------------------------------------------------

def test_betweenness_path():
    g = supplier_chain(3)
    assert list(betweenness(g)) == [0.0, 1.0, 0.0]


def test_betweenness_in_out_star():
    g = Graph()
    c = g.add_entity("c", EntityType.SUPPLIER)
    ins = [g.add_entity(f"i{k}", EntityType.SUPPLIER) for k in range(3)]
    outs = [g.add_entity(f"o{k}", EntityType.SUPPLIER) for k in range(3)]
    for i in ins:
        g.add_triple(i, RelationType.SUPPLIES_TO, c, DEFAULT_SCHEMA)
    for o in outs:
        g.add_triple(c, RelationType.SUPPLIES_TO, o, DEFAULT_SCHEMA)
    assert betweenness(g)[c] == 9.0  # 3 sources x 3 sinks, one path each
    np.testing.assert_array_equal(betweenness(g), brute_betweenness(g))


@pytest.mark.parametrize("seed", range(10))
def test_betweenness_matches_oracle_on_dags(seed):
    rng = np.random.default_rng(seed)
    g = random_dag(rng, int(rng.integers(5, 41)), int(rng.integers(5, 80)))
    np.testing.assert_allclose(betweenness(g), brute_betweenness(g), atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_betweenness_matches_oracle_on_digraphs(seed):
    rng = np.random.default_rng(100 + seed)
    g = random_supplier_graph(rng, int(rng.integers(5, 41)), int(rng.integers(5, 80)))
    np.testing.assert_allclose(betweenness(g), brute_betweenness(g), atol=1e-9)


def test_betweenness_and_closeness_deterministic():
    g = random_supplier_graph(np.random.default_rng(7), 30, 60)
    np.testing.assert_array_equal(betweenness(g), betweenness(g))
    np.testing.assert_array_equal(closeness(g), closeness(g))


# -- batched BFS (betweenness and closeness share it) ------------------------

def assert_centralities_match_oracles(g):
    np.testing.assert_allclose(betweenness(g), brute_betweenness(g), rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(closeness(g), brute_closeness(g))


@pytest.mark.parametrize("rows", [3, 4])
@pytest.mark.parametrize("seed", range(8))
def test_batched_bfs_matches_oracles_across_batches(seed, rows, monkeypatch):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(2 * rows + 1, 41))
    n += n % rows == 0  # a short last batch
    g = random_supplier_graph(rng, n, int(rng.integers(n, 3 * n)))
    monkeypatch.setattr(analytics, "BFS_BYTES", 8 * n * rows)
    assert_centralities_match_oracles(g)


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("seed", range(6))
def test_one_sweep_equals_two_bit_for_bit(seed, rows, monkeypatch):
    """criticality's one sweep gives the bits of the standalone metrics and of
    the former two sweeps (np.unique frontiers, np.add.at closeness counts)."""
    rng = np.random.default_rng(600 + seed)
    n = int(rng.integers(5, 41))
    g = (random_dag if seed % 2 else random_supplier_graph)(rng, n, int(rng.integers(n, 3 * n)))
    monkeypatch.setattr(analytics, "BFS_BYTES", 8 * n * rows)
    raw = criticality(g).raw
    shared, (between, close) = shortest_path_centralities(g), two_sweep_centralities(g)
    for name, value, alone, former in (("betweenness", shared[0], betweenness(g), between),
                                       ("closeness", shared[1], closeness(g), close)):
        assert raw[name].tobytes() == value.tobytes() == alone.tobytes() == former.tobytes(), name
    np.testing.assert_allclose(raw["betweenness"], brute_betweenness(g), rtol=1e-9, atol=1e-9)
    np.testing.assert_array_equal(raw["closeness"], brute_closeness(g))


@pytest.mark.parametrize("rows", [1, 4, 64])
def test_batched_bfs_levels_equal_those_with_unique_frontiers(rows, monkeypatch):
    g = random_supplier_graph(np.random.default_rng(11), 30, 90)
    monkeypatch.setattr(analytics, "BFS_BYTES", 8 * 30 * rows)
    for (first, sigma, levels), (ref_first, ref_sigma, ref_levels) in zip(analytics._bfs_levels(g),
                                                                          unique_frontier_bfs_levels(g)):
        assert first == ref_first and sigma.tobytes() == ref_sigma.tobytes()
        assert len(levels) == len(ref_levels)
        for level, ref_level in zip(levels, ref_levels):
            assert all(np.array_equal(a, b) for a, b in zip(level, ref_level))


def test_batched_bfs_empty_and_single_node():
    empty = Graph()
    assert betweenness(empty).shape == (0,) and closeness(empty).shape == (0,)
    g = Graph()
    g.add_entity("only", EntityType.SUPPLIER)
    assert list(betweenness(g)) == [0.0] and list(closeness(g)) == [0.0]


def test_batched_bfs_ignores_self_loops():
    g = Graph()
    ids = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(3)]
    for i in ids:
        g.add_triple(i, RelationType.SUPPLIES_TO, i, DEFAULT_SCHEMA)
    assert list(betweenness(g)) == [0.0] * 3 and list(closeness(g)) == [0.0] * 3
    g.add_triple(ids[0], RelationType.SUPPLIES_TO, ids[1], DEFAULT_SCHEMA)
    g.add_triple(ids[1], RelationType.SUPPLIES_TO, ids[2], DEFAULT_SCHEMA)
    assert list(betweenness(g)) == [0.0, 1.0, 0.0]
    assert_centralities_match_oracles(g)


@pytest.mark.parametrize("rows", [1, 2, 64])
def test_batched_bfs_isolated_and_reciprocal(rows, monkeypatch):
    monkeypatch.setattr(analytics, "BFS_BYTES", 8 * 7 * rows)
    g = Graph()
    ids = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(7)]  # s6 isolated
    for a, b in ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 4), (4, 2), (5, 3)):
        g.add_triple(ids[a], RelationType.SUPPLIES_TO, ids[b], DEFAULT_SCHEMA)
    assert betweenness(g)[6] == 0.0 and closeness(g)[6] == 0.0
    assert_centralities_match_oracles(g)


def test_batched_bfs_collapses_parallel_relations():
    rules = dict(DEFAULT_SCHEMA.rules)
    rules[RelationType.RELATED_TO] = (frozenset({EntityType.SUPPLIER}), frozenset({EntityType.SUPPLIER}))
    schema = Schema(rules)
    g = Graph()
    a, b, c, d = (g.add_entity(x, EntityType.SUPPLIER) for x in "abcd")
    g.add_triple(a, RelationType.RELATED_TO, b, schema)  # a->b twice, by two relations
    for s, o in ((a, b), (a, c), (b, d), (c, d)):
        g.add_triple(s, RelationType.SUPPLIES_TO, o, schema)
    assert list(betweenness(g)) == [0.0, 0.5, 0.5, 0.0]  # two a->d paths, not three
    assert list(degree_centrality(g)[1]) == [3, 1, 1, 0]  # degree still counts triples
    assert_centralities_match_oracles(g)


def test_betweenness_diamond_chain_closed_form(monkeypatch):
    # j0 -> {a0, b0} -> j1 -> ... -> j40: 2**40 shortest paths from j0 to j40
    m = 40
    monkeypatch.setattr(analytics, "BFS_BYTES", 8 * (3 * m + 1) * 16)
    g = Graph()
    junctions = [g.add_entity(f"j{i}", EntityType.SUPPLIER) for i in range(m + 1)]
    middles = []
    for i in range(m):
        pair = [g.add_entity(f"{x}{i}", EntityType.SUPPLIER) for x in "ab"]
        for v in pair:
            g.add_triple(junctions[i], RelationType.SUPPLIES_TO, v, DEFAULT_SCHEMA)
            g.add_triple(v, RelationType.SUPPLIES_TO, junctions[i + 1], DEFAULT_SCHEMA)
        middles.append(pair)
    expected = np.zeros(g.num_entities)
    for t, j in enumerate(junctions):
        expected[j] = 9 * t * (m - t)  # 3t nodes before it, 3(m - t) after
    for i, pair in enumerate(middles):
        # 3i + 1 sources before it, 3(m - i) - 2 targets after, half of each pair's paths
        expected[pair] = (3 * i + 1) * (3 * (m - i) - 2) / 2
    np.testing.assert_array_equal(betweenness(g), expected)
    np.testing.assert_array_equal(closeness(g), brute_closeness(g))


# -- closeness ---------------------------------------------------------------

def test_closeness_path():
    g = supplier_chain(3)
    vals = closeness(g)
    assert vals[0] == pytest.approx(2 / 3)  # distances 1+2, all reachable
    assert vals[1] == pytest.approx((1 / 1) * (1 / 2))
    assert vals[2] == 0.0  # nothing reachable from the sink


@pytest.mark.parametrize("seed", range(10))
def test_closeness_matches_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    g = random_supplier_graph(rng, int(rng.integers(5, 41)), int(rng.integers(5, 80)))
    np.testing.assert_allclose(closeness(g), brute_closeness(g), atol=1e-9)


def test_closeness_values_in_unit_interval():
    g = random_supplier_graph(np.random.default_rng(3), 25, 70)
    vals = closeness(g)
    assert (vals >= 0.0).all() and (vals <= 1.0).all()


# -- triangles ---------------------------------------------------------------

def test_triangles_directed_cycle():
    g = Graph()
    ids = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(3)]
    g.add_triple(ids[0], RelationType.SUPPLIES_TO, ids[1], DEFAULT_SCHEMA)
    g.add_triple(ids[1], RelationType.SUPPLIES_TO, ids[2], DEFAULT_SCHEMA)
    g.add_triple(ids[2], RelationType.SUPPLIES_TO, ids[0], DEFAULT_SCHEMA)
    assert list(triangle_count(g)) == [1, 1, 1]


def test_triangles_tree_is_zero():
    g = Graph()
    ids = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(7)]
    for i in range(1, 7):
        g.add_triple(ids[(i - 1) // 2], RelationType.SUPPLIES_TO, ids[i], DEFAULT_SCHEMA)
    assert not triangle_count(g).any()


def test_triangles_merge_reciprocal_edges():
    g = Graph()
    a = g.add_entity("a", EntityType.SUPPLIER)
    b = g.add_entity("b", EntityType.SUPPLIER)
    c = g.add_entity("c", EntityType.SUPPLIER)
    g.add_triple(a, RelationType.SUPPLIES_TO, b, DEFAULT_SCHEMA)
    g.add_triple(b, RelationType.SUPPLIES_TO, a, DEFAULT_SCHEMA)  # reciprocal
    g.add_triple(b, RelationType.SUPPLIES_TO, c, DEFAULT_SCHEMA)
    g.add_triple(a, RelationType.SUPPLIES_TO, c, DEFAULT_SCHEMA)
    assert list(triangle_count(g)) == [1, 1, 1]


@pytest.mark.parametrize("seed", range(10))
def test_triangles_match_oracle(seed):
    rng = np.random.default_rng(300 + seed)
    g = random_supplier_graph(rng, int(rng.integers(5, 41)), int(rng.integers(5, 80)))
    np.testing.assert_array_equal(triangle_count(g), brute_triangles(g))


# -- normalize ---------------------------------------------------------------

def test_normalize_cases():
    np.testing.assert_allclose(normalize(np.array([0.0, 5.0, 10.0])), [0.0, 5.0, 10.0])
    np.testing.assert_allclose(normalize(np.array([3.0, 3.0, 3.0])), [0.0, 0.0, 0.0])
    np.testing.assert_allclose(normalize(np.array([1.0, 2.0, 3.0])), [0.0, 5.0, 10.0])


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_normalize_bounds(seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=rng.integers(1, 50)) * rng.uniform(0.1, 100)
    out = normalize(vals)
    assert (out >= 0.0).all() and (out <= 10.0 + 1e-12).all()


# -- criticality -------------------------------------------------------------

def test_criticality_star_center_dominates():
    # in/out star: the center tops or ties every metric
    g = Graph()
    c = g.add_entity("center", EntityType.SUPPLIER)
    for k in range(3):
        leaf = g.add_entity(f"in{k}", EntityType.SUPPLIER)
        g.add_triple(leaf, RelationType.SUPPLIES_TO, c, DEFAULT_SCHEMA)
    for k in range(3):
        leaf = g.add_entity(f"out{k}", EntityType.SUPPLIER)
        g.add_triple(c, RelationType.SUPPLIES_TO, leaf, DEFAULT_SCHEMA)
    report = criticality(g)
    assert report.aggregated[c] > max(report.aggregated[1:])
    for m in METRIC_NAMES:
        assert (report.normalized[m] >= 0.0).all()
        assert (report.normalized[m] <= 10.0).all()
    assert (report.aggregated >= 0.0).all() and (report.aggregated <= 50.0).all()


def test_criticality_flags_strictly_above_threshold():
    g = random_supplier_graph(np.random.default_rng(4), 20, 50)
    report = criticality(g, threshold=12.5)
    np.testing.assert_array_equal(report.is_critical, report.aggregated > 12.5)
    assert report.threshold == 12.5


def test_criticality_correlation_properties():
    g = random_supplier_graph(np.random.default_rng(5), 25, 80)
    corr = criticality(g).correlation
    assert corr.shape == (5, 5)
    np.testing.assert_allclose(corr, corr.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(corr), 1.0)
    assert (corr >= -1.0).all() and (corr <= 1.0).all()


def test_criticality_duplicated_metrics_correlate_perfectly():
    # directed 3-cycle + isolated node: in_degree == triangle_count == [1,1,1,0]
    g = Graph()
    ids = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(3)]
    g.add_triple(ids[0], RelationType.SUPPLIES_TO, ids[1], DEFAULT_SCHEMA)
    g.add_triple(ids[1], RelationType.SUPPLIES_TO, ids[2], DEFAULT_SCHEMA)
    g.add_triple(ids[2], RelationType.SUPPLIES_TO, ids[0], DEFAULT_SCHEMA)
    g.add_entity("iso", EntityType.SUPPLIER)
    report = criticality(g)
    np.testing.assert_array_equal(report.raw["in_degree"], report.raw["triangle_count"])
    i = METRIC_NAMES.index("in_degree")
    j = METRIC_NAMES.index("triangle_count")
    assert report.correlation[i, j] == pytest.approx(1.0, abs=1e-9)


def test_criticality_single_node_has_no_correlation():
    g = Graph()
    g.add_entity("only", EntityType.SUPPLIER)
    report = criticality(g)
    assert report.correlation is None
    assert report.num_nodes == 1


def test_isolated_node_is_local():
    g = random_supplier_graph(np.random.default_rng(6), 15, 40)
    before = criticality(g)
    n_before = g.num_entities
    g2 = random_supplier_graph(np.random.default_rng(6), 15, 40)
    g2.add_entity("isolated", EntityType.SUPPLIER)
    after = criticality(g2)
    for m in ("in_degree", "out_degree", "betweenness", "triangle_count"):
        np.testing.assert_array_equal(before.raw[m], after.raw[m][:n_before])
    # closeness changes only through the (n-1) factor
    factor = (n_before - 1) / (g2.num_entities - 1)
    np.testing.assert_allclose(after.raw["closeness"][:n_before], before.raw["closeness"] * factor, atol=1e-12)


def test_criticality_independent_of_insertion_order():
    def build(order):
        g = Graph()
        ids = {}
        for name in order:
            ids[name] = g.add_entity(name, EntityType.SUPPLIER)
        for a, b in (("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")):
            g.add_triple(ids[a], RelationType.SUPPLIES_TO, ids[b], DEFAULT_SCHEMA)
        return g

    r1 = criticality(build(["a", "b", "c", "d"]))
    r2 = criticality(build(["d", "c", "b", "a"]))
    by_label_1 = dict(zip(r1.labels, r1.aggregated))
    by_label_2 = dict(zip(r2.labels, r2.aggregated))
    for label in by_label_1:
        assert by_label_1[label] == pytest.approx(by_label_2[label], abs=1e-12)
    # the correlation matrix is invariant under node relabeling
    np.testing.assert_allclose(r1.correlation, r2.correlation, atol=1e-12)


def test_criticality_csv_and_summary(tmp_path):
    g = random_supplier_graph(np.random.default_rng(8), 10, 25)
    report = criticality(g)
    path = tmp_path / "crit.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("node,in_degree,out_degree")
    assert len(lines) == 1 + g.num_entities
    summary = report.summary_text()
    assert "correlation" in summary and "threshold" in summary


# -- sole supplier scopes ----------------------------------------------------

def test_sole_supplier_scopes_cases():
    g = Graph()
    s1 = g.add_entity("s1", EntityType.SUPPLIER)
    s2 = g.add_entity("s2", EntityType.SUPPLIER)
    shared = g.add_entity("shared", EntityType.BUSINESS_SCOPE)
    solo = g.add_entity("solo", EntityType.BUSINESS_SCOPE)
    g.add_entity("empty", EntityType.BUSINESS_SCOPE)
    g.add_triple(s1, RelationType.RELATED_TO, shared, DEFAULT_SCHEMA)
    g.add_triple(s2, RelationType.RELATED_TO, shared, DEFAULT_SCHEMA)
    g.add_triple(s2, RelationType.RELATED_TO, solo, DEFAULT_SCHEMA)
    assert sole_supplier_scopes(g) == [(solo, s2)]


def test_scope_suppliers_equal_the_distinct_pair_rows(default_graph):
    for g in (default_graph, *(random_typed_graph(np.random.default_rng(seed), 80, 400) for seed in range(3))):
        t = g.triples_array()
        t = t[t[:, 1] == RELATION_INDEX[RelationType.RELATED_TO]]
        pairs = np.concatenate([t[:, [0, 2]], t[:, [2, 0]]])
        codes = g.type_codes()
        pairs = pairs[(codes[pairs[:, 0]] == analytics.ENTITY_TYPE_INDEX[EntityType.BUSINESS_SCOPE])
                      & (codes[pairs[:, 1]] == analytics.ENTITY_TYPE_INDEX[EntityType.SUPPLIER])]
        expected = np.unique(pairs.reshape(-1, 2), axis=0)
        found = analytics.scope_suppliers(g)
        assert found.dtype == expected.dtype and found.shape == expected.shape
        np.testing.assert_array_equal(found, expected)
    assert analytics.scope_suppliers(Graph()).shape == (0, 2)


def test_sole_supplier_scopes_matches_incidence_scan(default_graph):
    result = dict(sole_supplier_scopes(default_graph))
    counts = {}
    for s, r, o in default_graph.triples_array().tolist():
        if r == RELATION_INDEX[RelationType.RELATED_TO]:
            counts.setdefault(o, set()).add(s)
    expected = {scope: next(iter(sups)) for scope, sups in counts.items() if len(sups) == 1}
    assert result == expected


# -- critical paths ----------------------------------------------------------

def chain_with_hub():
    """Chain d -> c -> b -> a -> hub where the hub tops every metric."""
    g = Graph()
    hub = g.add_entity("hub", EntityType.SUPPLIER)
    a = g.add_entity("a", EntityType.SUPPLIER)
    b = g.add_entity("b", EntityType.SUPPLIER)
    c = g.add_entity("c", EntityType.SUPPLIER)
    d = g.add_entity("d", EntityType.SUPPLIER)
    for s, o in ((a, hub), (b, a), (c, b), (d, c)):
        g.add_triple(s, RelationType.SUPPLIES_TO, o, DEFAULT_SCHEMA)
    # extra in- and out-edges keep the hub's aggregated score on top
    for k in range(3):
        e = g.add_entity(f"x{k}", EntityType.SUPPLIER)
        g.add_triple(e, RelationType.SUPPLIES_TO, hub, DEFAULT_SCHEMA)
    for k in range(2):
        e = g.add_entity(f"y{k}", EntityType.SUPPLIER)
        g.add_triple(hub, RelationType.SUPPLIES_TO, e, DEFAULT_SCHEMA)
    return g, hub, a, b, c, d


def test_critical_paths_empty_without_flags():
    g, hub, *_ = chain_with_hub()
    report = criticality(g, threshold=1000.0)
    assert critical_paths(g, report) == []


def test_critical_paths_contains_flagged_edge_path():
    g, hub, a, *_ = chain_with_hub()
    report = criticality(g, threshold=10.0)
    assert report.is_critical[hub]
    paths = critical_paths(g, report)
    assert [a, hub] in paths


def test_critical_paths_depth_bound():
    g, hub, *_ = chain_with_hub()
    report = criticality(g, threshold=10.0)
    for depth in (1, 2, 3):
        for path in critical_paths(g, report, max_depth=depth):
            assert len(path) <= depth + 1
            assert path[-1] == hub


@st.composite
def supplier_networks(draw):
    """Up to 8 suppliers with supplies_to edges (cycles, reciprocal pairs and
    self-loops included), related_to edges between suppliers that the paths
    must ignore, and, half the time, drawn aggregated scores (ties included)."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    rules = dict(DEFAULT_SCHEMA.rules)
    rules[RelationType.RELATED_TO] = (frozenset({EntityType.SUPPLIER}), frozenset({EntityType.SUPPLIER}))
    schema = Schema(rules)
    g = Graph()
    ids = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(n)]
    for rel, size in ((RelationType.SUPPLIES_TO, 24), (RelationType.RELATED_TO, 6)):
        for a, b in draw(st.lists(st.tuples(node, node), max_size=size)):
            if not g.has_triple(ids[a], rel, ids[b]):
                g.add_triple(ids[a], rel, ids[b], schema)
    report = criticality(g)
    scores = draw(st.none() | st.lists(st.integers(0, 4), min_size=n, max_size=n))
    if scores is not None:
        report = replace(report, aggregated=np.array(scores, dtype=float))
    return g, report


@settings(deadline=None)
@given(supplier_networks())
def test_critical_paths_equal_the_depth_first_oracle(network):
    g, report = network
    scores = report.aggregated
    # flags change only as the threshold crosses a distinct score
    for threshold in np.concatenate([[scores.min() - 1.0], np.unique(scores)]):
        flagged = replace(report, is_critical=scores > threshold, threshold=float(threshold))
        for depth in range(5):
            expected = depth_first_critical_paths(g, flagged, depth)
            assert critical_paths(g, flagged, depth) == expected
            assert count_critical_paths(g, flagged, depth) == len(expected)

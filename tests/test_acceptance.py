"""Acceptance criteria, one test per criterion, each printing PASS on success.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Budget-sensitive criteria assert their own wall-clock limits.
"""

import time

import numpy as np
import pytest

from chainlens.analytics import METRIC_NAMES, betweenness, closeness, criticality, triangle_count
from chainlens.cli import main
from chainlens.dataset import (
    GeneratorConfig,
    SplitConfig,
    SplitInfeasible,
    export_triples,
    generate_synthetic,
    load_triples,
    transductive_split,
)
from chainlens.evaluation import Query, build_filter_index, evaluate, rank_object
from chainlens.exports import export_graph
from chainlens.graph import DEFAULT_SCHEMA, EntityType, Graph, RelationType
from chainlens.models import ModelKind, init_params, load_checkpoint, save_checkpoint
from chainlens.training import TrainConfig, train

from conftest import random_typed_graph
from reference_models import gradients
from reference_writer import label_triples
from test_analytics import brute_betweenness, brute_closeness, brute_triangles
from test_evaluation import table_params
from test_models import active_hinge_pair, finite_difference
from test_training import scripted_evaluate


# ---------------------------------------------------------------------------
# Shared trained models (criteria 3, 4, 5)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def learning_runs(default_graph, default_split_arrays):
    train_arr, valid_arr, test_arr = default_split_arrays
    n_ent, n_rel = default_graph.num_entities, len(RelationType)
    filter_index = build_filter_index([train_arr, valid_arr, test_arr])
    started = time.perf_counter()
    runs = {}
    for kind in (ModelKind.ROTATE, ModelKind.COMPLEX):
        config = TrainConfig(
            dim=64, learning_rate=0.001, max_epochs=300, eval_every=10,
            patience=30, batch_size=512, seed=3,
        )
        params, history = train(kind, train_arr, valid_arr, n_ent, n_rel, config)
        baseline = init_params(kind, n_ent, n_rel, config)
        runs[kind] = {
            "params": params,
            "history": history,
            "baseline": baseline,
            "test_mrr": evaluate(params, test_arr, filter_index, setting="filtered").mrr,
            "baseline_mrr": evaluate(baseline, test_arr, filter_index, setting="filtered").mrr,
        }
    elapsed = time.perf_counter() - started
    return {"runs": runs, "elapsed": elapsed, "filter_index": filter_index, "test": test_arr}


@pytest.fixture(scope="module")
def memorization_runs():
    rng = np.random.default_rng(42)
    n_ent, n_rel = 20, 2
    seen = set()
    while len(seen) < 50:
        s, r, o = int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent))
        if s < o:
            seen.add((s, r, o))
    triples = np.array(sorted(seen), dtype=np.int64)
    filter_index = build_filter_index([triples])
    out = {}
    for kind in (ModelKind.TRANSE, ModelKind.ROTATE):
        config = TrainConfig(
            dim=16, learning_rate=0.01, max_epochs=500, eval_every=500,
            patience=3, batch_size=50, seed=7,
        )
        params, history = train(kind, triples, triples, n_ent, n_rel, config)
        out[kind] = {"params": params, "mrr": evaluate(params, triples, filter_index, setting="filtered").mrr}
    return {"runs": out, "triples": triples, "filter_index": filter_index}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(20240601)
    n_ent, n_rel, dim = 9, 3, 8
    worst = 0.0
    for kind in ModelKind:
        for trial in range(20):
            params = init_params(kind, n_ent, n_rel, TrainConfig(dim=dim, seed=1000 + trial))
            pos, neg = active_hinge_pair(params, rng, n_ent, n_rel)
            analytic = gradients(params, pos, neg, 1.0)
            fd = finite_difference(params, pos, neg, 1.0, step=1e-5)
            for name in params.blocks:
                a = analytic[name]
                a = a.view(np.float64) if np.iscomplexobj(a) else a
                f = fd[name]
                scale = np.maximum(np.abs(a), np.abs(f))
                mask = scale > 1e-7  # entries below round-off carry no signal
                if mask.any():
                    rel = (np.abs(a - f)[mask] / scale[mask]).max()
                    worst = max(worst, float(rel))
                    assert rel < 1e-4, f"{kind.value} block {name} trial {trial}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 1 (gradient correctness): PASS - 5 models x 20 pairs, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_metric_arithmetic():
    table = np.array(
        [
            [9.0, 1.0, 2.0, 3.0, 4.0],
            [9.0, 5.0, 1.0, 2.0, 3.0],
            [9.0, 8.0, 1.0, 7.0, 0.5],
            [0.0] * 5,
            [0.0] * 5,
        ]
    )
    params = table_params({0: table}, 5)
    queries = np.array([(0, 0, 0), (1, 0, 1), (2, 0, 2)])  # ranks 1, 2, 4
    report = evaluate(params, queries, None, setting="raw")
    assert abs(report.mrr - (1 + 0.5 + 0.25) / 3) < 1e-9
    assert report.hits[1] == pytest.approx(1 / 3, abs=1e-12)
    assert report.hits[3] == pytest.approx(2 / 3, abs=1e-12)
    assert report.hits[10] == 1.0
    rng = np.random.default_rng(2)
    for _ in range(1000):
        ranks = rng.integers(1, 40, size=int(rng.integers(1, 50)))
        hits = {k: float(np.mean(ranks <= k)) for k in (1, 3, 10)}
        assert hits[1] <= hits[3] <= hits[10]
    print("ACCEPTANCE 2 (metric arithmetic): PASS - MRR 0.583333 within 1e-9, "
          "hits monotone on 1,000 random rank vectors")


def test_criterion_03_ranking_semantics(learning_runs, memorization_runs):
    for n in (2, 5, 101):
        params = table_params({0: np.zeros((n, n))}, n)
        rank = rank_object(params, Query(0, 0, n - 1), setting="raw", tie_policy="realistic").rank
        assert rank == (n + 1) / 2
    violations = 0
    checks = 0
    for bundle, queries, fidx in (
        (learning_runs["runs"], learning_runs["test"], learning_runs["filter_index"]),
        (memorization_runs["runs"], memorization_runs["triples"], memorization_runs["filter_index"]),
    ):
        for kind, run in bundle.items():
            filtered = evaluate(run["params"], queries, fidx, setting="filtered")
            raw = evaluate(run["params"], queries, fidx, setting="raw")
            checks += 1
            if filtered.mrr < raw.mrr:
                violations += 1
    assert violations == 0
    print(f"ACCEPTANCE 3 (ranking semantics): PASS - all-tie realistic ranks exact for "
          f"N in (2, 5, 101); filtered >= raw on {checks}/{checks} trained models")


def test_criterion_04_learning_signal(learning_runs):
    ratios = {}
    for kind, run in learning_runs["runs"].items():
        assert run["baseline_mrr"] > 0
        ratio = run["test_mrr"] / run["baseline_mrr"]
        ratios[kind.value] = (run["test_mrr"], run["baseline_mrr"], ratio)
        assert ratio >= 5.0, f"{kind.value}: {ratio:.2f}x"
    assert learning_runs["elapsed"] < 300.0
    detail = ", ".join(f"{k} mrr {m:.4f} ({r:.1f}x baseline {b:.4f})" for k, (m, b, r) in ratios.items())
    best = max(ratios, key=lambda k: ratios[k][0])
    print(f"ACCEPTANCE 4 (learning signal): PASS - {detail}; best model {best} "
          f"(qualitative echo, not asserted); {learning_runs['elapsed']:.0f}s")


def test_criterion_05_memorization(memorization_runs):
    for kind, run in memorization_runs["runs"].items():
        assert run["mrr"] >= 0.9, f"{kind.value}: {run['mrr']:.3f}"
    detail = ", ".join(f"{k.value} mrr {run['mrr']:.3f}" for k, run in memorization_runs["runs"].items())
    print(f"ACCEPTANCE 5 (memorization): PASS - {detail} on 50 held-in triples, dim 16")


def test_criterion_06_centrality_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(30):
        n = int(rng.integers(5, 41))
        m = int(rng.integers(n, 3 * n))
        g = Graph()
        ids = [g.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(n)]
        seen = set()
        for _ in range(m * 3):
            if len(seen) >= m:
                break
            a, b = int(rng.integers(n)), int(rng.integers(n))
            if a != b and (a, b) not in seen:
                seen.add((a, b))
                g.add_triple(ids[a], RelationType.SUPPLIES_TO, ids[b], DEFAULT_SCHEMA)
        np.testing.assert_allclose(betweenness(g), brute_betweenness(g), atol=1e-9)
        np.testing.assert_array_equal(triangle_count(g), brute_triangles(g))
        np.testing.assert_allclose(closeness(g), brute_closeness(g), atol=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6 (centrality oracles): PASS - 30 random graphs <= 40 nodes, "
          f"betweenness/triangles exact, closeness within 1e-9, {elapsed:.1f}s")


def test_criterion_07_criticality_pipeline(default_graph):
    suppliers = default_graph.project_subgraph({EntityType.SUPPLIER}, {RelationType.SUPPLIES_TO})
    report = criticality(suppliers)
    hub = int(np.argmax(report.aggregated))
    assert suppliers.labels[hub] == "FocalCo"
    second = np.partition(report.aggregated, -2)[-2]
    assert report.aggregated[hub] > second
    for m in METRIC_NAMES:
        assert (report.normalized[m] >= 0.0).all() and (report.normalized[m] <= 10.0).all()
    assert (report.aggregated >= 0.0).all() and (report.aggregated <= 50.0).all()
    corr = report.correlation
    np.testing.assert_allclose(corr, corr.T, atol=1e-12)
    np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)
    assert (corr >= -1.0).all() and (corr <= 1.0).all()

    crafted = Graph()
    ids = [crafted.add_entity(f"s{i}", EntityType.SUPPLIER) for i in range(3)]
    for a, b in ((0, 1), (1, 2), (2, 0)):
        crafted.add_triple(ids[a], RelationType.SUPPLIES_TO, ids[b], DEFAULT_SCHEMA)
    crafted.add_entity("iso", EntityType.SUPPLIER)
    dup = criticality(crafted)
    i, j = METRIC_NAMES.index("in_degree"), METRIC_NAMES.index("triangle_count")
    assert abs(dup.correlation[i, j] - 1.0) < 1e-9
    print(f"ACCEPTANCE 7 (criticality pipeline): PASS - hub {report.aggregated[hub]:.2f} "
          f"vs runner-up {second:.2f}; bounds and correlation properties hold; "
          f"duplicated metrics correlate 1.0")


def test_criterion_08_transductive_split():
    n_graphs = 0
    n_splits = 0
    graph_seed = 0
    while n_graphs < 20:
        graph_seed += 1
        g = random_typed_graph(np.random.default_rng(graph_seed), 18, 60)
        try:
            transductive_split(g, SplitConfig(0.1, 0.1, seed=0))
        except SplitInfeasible:
            continue
        n_graphs += 1
        all_triples = set(map(tuple, g.triples_array().tolist()))
        for seed in range(50):
            result = transductive_split(g, SplitConfig(0.1, 0.1, seed=seed))
            n_splits += 1
            parts = [list(map(tuple, p.tolist())) for p in (result.train_ids, result.validation_ids, result.test_ids)]
            assert set().union(*map(set, parts)) == all_triples
            assert sum(map(len, parts)) == len(all_triples)
            train_ents = {s for s, _, o in parts[0]} | {o for s, _, o in parts[0]}
            train_rels = {r for _, r, _ in parts[0]}
            for part in parts[1:]:
                for s, r, o in part:
                    assert s in train_ents and o in train_ents
                    assert r in train_rels
    print(f"ACCEPTANCE 8 (transductive split): PASS - {n_splits} splits over "
          f"{n_graphs} graphs, partition + transductive property always hold")


def test_criterion_09_early_stopping(monkeypatch):
    rng = np.random.default_rng(9)
    triples = np.array(
        sorted({(int(rng.integers(12)), int(rng.integers(2)), int(rng.integers(12))) for _ in range(40)}),
        dtype=np.int64,
    )
    config = TrainConfig(dim=8, max_epochs=1000, eval_every=10, patience=3, batch_size=16, seed=9)
    snapshots = scripted_evaluate(monkeypatch, [0.5] * 5)  # validation hits@10 plateaus at once

    params, history = train(ModelKind.TRANSE, triples, triples[:8], 12, 2, config)
    assert len(snapshots) == 4 and [r.epoch for r in history.records] == [10, 20, 30, 40]
    assert history.stopped_early and history.best_epoch == 10
    for name in params.blocks:
        assert np.array_equal(params.blocks[name], snapshots[0].blocks[name])
    print("ACCEPTANCE 9 (early stopping): PASS - plateau stops after 4 evaluations "
          "(epochs 10-40), best checkpoint returned")


def test_criterion_10_determinism_and_round_trips(tmp_path):
    cfg = GeneratorConfig(seed=5)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    export_triples(generate_synthetic(cfg), p1)
    export_triples(generate_synthetic(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()

    g = load_triples(p1)
    assert label_triples(g) == label_triples(generate_synthetic(cfg))

    rng = np.random.default_rng(10)
    triples = np.array(
        sorted({(int(rng.integers(12)), int(rng.integers(2)), int(rng.integers(12))) for _ in range(40)}),
        dtype=np.int64,
    )
    tcfg = TrainConfig(dim=8, max_epochs=30, eval_every=10, batch_size=16, seed=10)
    params1, h1 = train(ModelKind.ROTATE, triples, triples[:8], 12, 2, tcfg)
    params2, h2 = train(ModelKind.ROTATE, triples, triples[:8], 12, 2, tcfg)
    assert [(r.epoch, r.hits10, r.mrr, r.mean_loss) for r in h1.records] == [
        (r.epoch, r.hits10, r.mrr, r.mean_loss) for r in h2.records
    ]
    ckpt = tmp_path / "model.npz"
    save_checkpoint(params1, ckpt)
    loaded = load_checkpoint(ckpt)
    for name in params1.blocks:
        assert np.array_equal(loaded.blocks[name], params1.blocks[name])

    suppliers = g.project_subgraph({EntityType.SUPPLIER}, {RelationType.SUPPLIES_TO})
    report = criticality(suppliers)
    flags = dict(zip(report.labels, (bool(v) for v in report.is_critical)))
    for fmt in ("dot", "graphml"):
        e1, e2 = tmp_path / f"x1.{fmt}", tmp_path / f"x2.{fmt}"
        export_graph(suppliers, flags, fmt, e1)
        export_graph(suppliers, flags, fmt, e2)
        assert e1.read_bytes() == e2.read_bytes()
    print("ACCEPTANCE 10 (determinism & round trips): PASS - byte-identical generation, "
          "identical training histories, exact file/checkpoint round trips, "
          "byte-stable DOT/GraphML")


def test_criterion_11_end_to_end(tmp_path):
    started = time.perf_counter()
    graph = tmp_path / "graph.tsv"
    splits = tmp_path / "splits"
    ckpt = tmp_path / "transe.npz"
    evals = tmp_path / "eval"
    analysis = tmp_path / "analysis"
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(
        "dim=32\nlearning_rate=0.001\nmax_epochs=150\neval_every=10\npatience=3\n"
        "batch_size=512\nseed=11\n"
    )
    steps = [
        ["generate", "--seed", "0", "--out", str(graph)],
        ["split", "--in", str(graph), "--fractions", "0.1", "0.1", "--seed", "1",
         "--check", "--out", str(splits)],
        ["train", "--model", "TransE", "--split-dir", str(splits),
         "--config", str(train_cfg), "--out", str(ckpt)],
        ["eval", "--checkpoint", str(ckpt), "--split-dir", str(splits),
         "--setting", "both", "--per-relation", "--out", str(evals)],
        ["analyze", "--in", str(graph), "--sole-scopes", "--out", str(analysis)],
        ["export", "--in", str(graph), "--report", str(analysis / "criticality.csv"),
         "--format", "graphml", "--out", str(tmp_path / "viz.graphml")],
    ]
    for argv in steps:
        assert main(argv) == 0, f"step failed: {argv[0]}"
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    assert (evals / "eval_filtered.csv").exists()
    assert (tmp_path / "viz.graphml").exists()
    print(f"ACCEPTANCE 11 (end-to-end): PASS - generate/split/train/eval/analyze/export "
          f"all exit 0 in {elapsed:.0f}s")

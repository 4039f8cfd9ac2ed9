import inspect
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainlens.evaluation as evaluation
import chainlens.models as models
from chainlens.evaluation import (
    SETTINGS,
    TIE_POLICIES,
    EmptyQuerySet,
    EvalReport,
    PerRelationMetrics,
    Query,
    VocabularyMismatch,
    block_rows,
    build_filter_index,
    evaluate,
    per_relation_table,
    rank_object,
    rank_queries,
    type_constrained_candidates,
)
from chainlens.graph import DEFAULT_SCHEMA, RelationType
from chainlens.models import ModelKind, ModelParams, init_params
from chainlens.training import TrainConfig, train

from conftest import random_typed_graph


def table_params(score_table: dict[int, np.ndarray], n_entities: int) -> ModelParams:
    """RESCAL params whose scores are exactly M_r[s, o], i.e. arbitrary tables."""
    n_rel = max(score_table) + 1
    relation = np.zeros((n_rel, n_entities, n_entities))
    for rel, table in score_table.items():
        relation[rel] = np.asarray(table, dtype=float)
    return ModelParams(
        kind=ModelKind.RESCAL,
        dim=n_entities,
        num_entities=n_entities,
        num_relations=n_rel,
        seed=0,
        blocks={"entity": np.eye(n_entities), "relation": relation},
    )


# -- rank_object -------------------------------------------------------------

def test_strictly_best_object_ranks_first_under_every_policy():
    p = table_params({0: np.array([[1.0, 9.0, 3.0, 2.0, 0.0]] * 5)}, 5)
    q = Query(0, 0, 1)
    for policy in ("optimistic", "realistic", "pessimistic"):
        assert rank_object(p, q, setting="raw", tie_policy=policy).rank == 1.0


def test_all_tie_rank_arithmetic():
    p = table_params({0: np.zeros((5, 5))}, 5)
    q = Query(0, 0, 2)
    assert rank_object(p, q, setting="raw", tie_policy="optimistic").rank == 1.0
    assert rank_object(p, q, setting="raw", tie_policy="pessimistic").rank == 5.0
    assert rank_object(p, q, setting="raw", tie_policy="realistic").rank == 3.0


@pytest.mark.parametrize("n", [2, 5, 101])
def test_all_tie_realistic_rank_is_midpoint(n):
    p = table_params({0: np.zeros((n, n))}, n)
    rank = rank_object(p, Query(0, 0, n - 1), setting="raw", tie_policy="realistic").rank
    assert rank == (n + 1) / 2


def test_filtered_excludes_known_true_competitor():
    # candidate 3 outranks the true object 1 but is known-true for (0, r)
    scores = np.array([[0.0, 5.0, 1.0, 9.0, 2.0]] * 5)
    p = table_params({0: scores}, 5)
    q = Query(0, 0, 1)
    raw = rank_object(p, q, setting="raw").rank
    filter_index = build_filter_index([np.array([[0, 0, 3]])])
    filtered = rank_object(p, q, filter_index, setting="filtered").rank
    assert raw == 2.0
    assert filtered == raw - 1.0


def test_filtered_never_excludes_true_object():
    scores = np.array([[0.0, 5.0, 1.0, 9.0, 2.0]] * 5)
    p = table_params({0: scores}, 5)
    filter_index = build_filter_index([np.array([[0, 0, 1], [0, 0, 3]])])
    result = rank_object(p, Query(0, 0, 1), filter_index, setting="filtered")
    assert result.rank == 1.0
    assert result.num_candidates == 4


def test_random_model_realistic_rank_mean_matches_uniform_oracle():
    n = 50
    p = init_params(ModelKind.TRANSE, n, 2, TrainConfig(dim=16, seed=13))
    rng = np.random.default_rng(13)
    queries = np.column_stack(
        [rng.integers(n, size=10_000), rng.integers(2, size=10_000), rng.integers(n, size=10_000)]
    )
    report = evaluate(p, queries, None, setting="raw")
    ranks = []
    for s, r, o in queries:
        ranks.append(rank_object(p, Query(int(s), int(r), int(o)), setting="raw").rank)
    mean_rank = float(np.mean(ranks))
    assert abs(mean_rank - (n + 1) / 2) / ((n + 1) / 2) < 0.05
    assert report.num_queries == 10_000


def test_rank_object_unknown_ids():
    p = table_params({0: np.zeros((3, 3))}, 3)
    with pytest.raises(KeyError):
        rank_object(p, Query(9, 0, 0))
    with pytest.raises(KeyError):
        rank_object(p, Query(0, 5, 0))


# -- evaluate ----------------------------------------------------------------

def ranks_fixture_params():
    # three queries engineered to rank 1, 2, and 4
    table = np.array(
        [
            [9.0, 1.0, 2.0, 3.0, 4.0],
            [9.0, 5.0, 1.0, 2.0, 3.0],
            [9.0, 8.0, 1.0, 7.0, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    p = table_params({0: table}, 5)
    queries = np.array([(0, 0, 0), (1, 0, 1), (2, 0, 2)])
    return p, queries


def test_evaluate_rank_arithmetic():
    p, queries = ranks_fixture_params()
    report = evaluate(p, queries, None, setting="raw")
    assert report.mrr == pytest.approx((1 + 1 / 2 + 1 / 4) / 3, abs=1e-9)
    assert report.hits[1] == pytest.approx(1 / 3)
    assert report.hits[3] == pytest.approx(2 / 3)
    assert report.hits[10] == pytest.approx(1.0)


def test_evaluate_all_rank_one():
    p = table_params({0: np.diag([9.0] * 4) + 1.0}, 4)
    queries = np.array([(i, 0, i) for i in range(4)])
    report = evaluate(p, queries, None, setting="raw")
    assert report.mrr == 1.0
    assert all(v == 1.0 for v in report.hits.values())


def test_evaluate_empty_queries():
    p = table_params({0: np.zeros((3, 3))}, 3)
    with pytest.raises(EmptyQuerySet):
        evaluate(p, np.empty((0, 3), dtype=np.int64), None)


def test_evaluate_invariant_under_query_permutation():
    p, queries = ranks_fixture_params()
    a = evaluate(p, queries, None, setting="raw")
    b = evaluate(p, queries[::-1], None, setting="raw")
    assert a.mrr == b.mrr and a.hits == b.hits


def test_evaluate_repeatable_and_invariant_to_repetition():
    p, queries = ranks_fixture_params()
    once = evaluate(p, queries, None, setting="raw")
    first = evaluate(p, np.tile(queries, (10, 1)), None, setting="raw")
    second = evaluate(p, np.tile(queries, (10, 1)), None, setting="raw")
    assert first.mrr == second.mrr and first.hits == second.hits
    assert first.mrr == pytest.approx(once.mrr, abs=1e-12) and first.hits == once.hits


def test_per_relation_counts_sum_to_total():
    table0 = np.random.default_rng(0).normal(size=(6, 6))
    table1 = np.random.default_rng(1).normal(size=(6, 6))
    p = table_params({0: table0, 1: table1}, 6)
    rng = np.random.default_rng(2)
    queries = np.array([(int(rng.integers(6)), int(rng.integers(2)), int(rng.integers(6))) for _ in range(40)])
    report = evaluate(p, queries, None, setting="raw")
    assert sum(m.count for m in report.per_relation.values()) == 40
    assert report.hits[1] <= report.hits[3] <= report.hits[10]
    assert report.mrr >= report.hits[1]


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_hits_monotonicity_on_random_rank_vectors(seed):
    rng = np.random.default_rng(seed)
    ranks = rng.integers(1, 30, size=rng.integers(1, 60))
    hits = {k: float(np.mean(ranks <= k)) for k in (1, 3, 10)}
    mrr = float(np.mean(1.0 / ranks))
    assert hits[1] <= hits[3] <= hits[10]
    assert 0.0 < mrr <= 1.0
    assert mrr >= hits[1]


def test_filtered_mrr_at_least_raw_on_trained_model():
    rng = np.random.default_rng(3)
    seen = set()
    while len(seen) < 50:
        s, r, o = int(rng.integers(12)), int(rng.integers(2)), int(rng.integers(12))
        if s != o:
            seen.add((s, r, o))
    triples = np.array(sorted(seen), dtype=np.int64)
    cfg = TrainConfig(dim=8, max_epochs=40, eval_every=20, batch_size=16, seed=4)
    params, _ = train(ModelKind.COMPLEX, triples, triples[:10], 12, 2, cfg)
    filter_index = build_filter_index([triples])
    filtered = evaluate(params, triples, filter_index, setting="filtered")
    raw = evaluate(params, triples, filter_index, setting="raw")
    assert filtered.mrr >= raw.mrr


# -- filter index and batched ranking ---------------------------------------

def test_filter_index_lookup():
    index = build_filter_index([np.array([[0, 1, 5], [0, 1, 2]]), np.array([[0, 1, 5], [3, 0, 2]])])
    rows, objects = index.pairs(np.array([3, 1, 0]), np.array([0, 0, 1]))
    np.testing.assert_array_equal(rows, [0, 2, 2])
    np.testing.assert_array_equal(objects, [2, 2, 5])  # sorted, duplicates merged
    for known, s, r in ((index, 1, 0), (index, 0, 2), (build_filter_index([]), 0, 0)):
        rows, objects = known.pairs(np.array([s]), np.array([r]))
        assert len(rows) == len(objects) == 0
    # with two relations, 0 * 2 + 2 is the key of (1, 0): relations must not alias
    aliased = build_filter_index([np.array([[1, 0, 4], [0, 1, 3]])])
    rows, objects = aliased.pairs(np.array([0, 1]), np.array([2, 0]))
    np.testing.assert_array_equal(rows, [1])
    np.testing.assert_array_equal(objects, [4])


@pytest.mark.parametrize("seed", range(4))
def test_filter_index_equals_its_np_unique_construction(seed):
    rng = np.random.default_rng(seed)
    sets = [rng.integers(0, [40, 3, 40], size=(int(rng.integers(0, 300)), 3)) for _ in range(3)]
    index = build_filter_index(sets)
    s, r, o = np.concatenate(sets).T
    assert (index.num_relations, index.num_objects) == (r.max() + 1, o.max() + 1)
    np.testing.assert_array_equal(index.keys, np.unique((s * index.num_relations + r) * index.num_objects + o))


@given(sets=st.lists(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3), st.integers(0, 8)), max_size=40),
                     max_size=3),
       queries=st.lists(st.tuples(st.integers(-3, 11), st.integers(-2, 6)), max_size=30))
@example(sets=[], queries=[(0, 0), (-1, 0), (0, -1)])
@example(sets=[[(1, 0, 4), (0, 1, 3)]], queries=[(0, 2), (1, -1), (-1, 1)])  # (0, 2) and (1, -1) alias (1, 0) and (0, 1)
@settings(deadline=None)
def test_filter_index_pairs_equal_a_brute_force_lookup(sets, queries):
    """pairs() against a dict of each pair's sorted objects, for the random queries and every known pair:
    queries with negative ids, relation ids at or past num_relations and subjects past the largest find
    no objects of another pair."""
    known = {}
    for s, r, o in (triple for triples in sets for triple in triples):
        known.setdefault((s, r), set()).add(o)
    queries = queries + sorted(known)
    index = build_filter_index([np.array(triples, dtype=np.int64).reshape(-1, 3) for triples in sets])
    s, r = np.array(queries, dtype=np.int64).reshape(-1, 2).T
    rows, objects = index.pairs(s, r)
    expected = [(row, o) for row, pair in enumerate(queries) for o in sorted(known.get(pair, ()))]
    assert list(zip(rows.tolist(), objects.tolist())) == expected


def reference_ranks(params, queries, filter_index, setting, tie_policy, candidate_index=None):
    return np.array([
        rank_object(params, Query(int(s), int(r), int(o)), filter_index, setting, tie_policy, candidate_index).rank
        for s, r, o in queries
    ])


@pytest.fixture
def fresh_pool(monkeypatch):
    """monkeypatch, with the rank pool used however few the pairs are, and the worker threads interleaved as
    often as the interpreter allows."""
    monkeypatch.setattr(evaluation, "PARALLEL_PAIRS", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield monkeypatch
    finally:
        sys.setswitchinterval(interval)


def rank_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("chainlens-rank")]


@pytest.fixture(scope="module")
def ranking_case():
    """A typed graph whose queries cross score-block boundaries in one relation."""
    rng = np.random.default_rng(17)
    n_ent = 2048
    graph = random_typed_graph(rng, n_ent, 300)
    triples = graph.triples_array()
    rows = block_rows(8 * n_ent)  # TransE's and RotatE's jobs
    # supplies_to queries with random objects, some outside its candidate types
    extra = np.column_stack([rng.integers(n_ent, size=2 * rows + 5), np.zeros(2 * rows + 5, dtype=np.int64),
                             rng.integers(n_ent, size=2 * rows + 5)])
    queries = np.concatenate([triples[:150], extra, triples[150:]])
    return graph, triples, queries


@pytest.mark.parametrize("constrained", [False, True], ids=["all", "typed"])
@pytest.mark.parametrize("filtered", [False, True], ids=["raw", "filtered"])
@pytest.mark.parametrize("kind", list(ModelKind))
def test_batched_ranks_equal_rank_object(ranking_case, kind, filtered, constrained, fresh_pool):
    """One rank_queries call gives rank_object's ranks in both settings, the
    same bits on any number of workers; without a filter index (the "raw"
    cases) its filtered ranks are the raw ones."""
    graph, triples, queries = ranking_case
    assert (queries[:, 1] == 0).sum() > 2 * block_rows(8 * graph.num_entities)  # three blocks or more
    params = init_params(kind, graph.num_entities, len(RelationType), TrainConfig(dim=8, seed=5))
    index = build_filter_index([triples]) if filtered else None
    candidates = type_constrained_candidates(graph, DEFAULT_SCHEMA) if constrained else None
    expected = {(setting, policy): reference_ranks(params, queries, index, setting, policy, candidates)
                for setting in SETTINGS for policy in TIE_POLICIES}
    if filtered:
        assert (expected["filtered", "optimistic"] < expected["raw", "optimistic"]).any()
    one_worker = {}
    for workers in (1, 2, 3):
        fresh_pool.setattr(evaluation, "RANK_WORKERS", workers)
        for policy in TIE_POLICIES:
            ranks = rank_queries(params, queries, index, policy, candidates)
            assert set(ranks) == set(SETTINGS)
            for setting in SETTINGS:
                np.testing.assert_array_equal(ranks[setting], expected[setting, policy])
                assert ranks[setting].tobytes() == one_worker.setdefault((setting, policy), ranks[setting].tobytes())


def test_no_thread_starts_for_one_block_or_one_processor(ranking_case, fresh_pool):
    """Nor for fewer than PARALLEL_PAIRS (query, entity) pairs."""
    graph, triples, queries = ranking_case
    params = init_params(ModelKind.TRANSE, graph.num_entities, len(RelationType), TrainConfig(dim=8, seed=5))
    fresh_pool.setattr(evaluation, "RANK_WORKERS", 2)
    threads = threading.active_count()
    one_block = queries[queries[:, 1] == 0][:block_rows(8 * graph.num_entities)]
    rank_queries(params, one_block)
    fresh_pool.setattr(evaluation, "PARALLEL_PAIRS", len(queries) * graph.num_entities + 1)
    rank_queries(params, queries)
    fresh_pool.setattr(evaluation, "PARALLEL_PAIRS", 0)
    fresh_pool.setattr(evaluation, "RANK_WORKERS", 1)
    rank_queries(params, queries)
    assert threading.active_count() == threads
    fresh_pool.setattr(evaluation, "RANK_WORKERS", 2)
    rankers = set()
    rank_block = evaluation._rank_block

    def recording_rank_block(*args):
        rankers.add(threading.current_thread().name)
        return rank_block(*args)

    fresh_pool.setattr(evaluation, "_rank_block", recording_rank_block)
    rank_queries(params, queries)
    assert rankers and all(name.startswith("chainlens-rank") for name in rankers)
    assert not rank_threads() and threading.active_count() == threads  # the call's threads are gone


@pytest.mark.parametrize("failing", ["chainlens-rank_0", "chainlens-rank_1"])
def test_a_failing_block_stops_every_worker_and_leaves_no_thread(ranking_case, fresh_pool, failing):
    """The error of one worker's block comes out of rank_queries, whichever
    worker it is; every other worker starts at most one more block, and no
    worker thread outlives the call."""
    graph, triples, queries = ranking_case
    params = init_params(ModelKind.TRANSE, graph.num_entities, len(RelationType), TrainConfig(dim=8, seed=5))
    fresh_pool.setattr(evaluation, "RANK_WORKERS", 2)
    fresh_pool.setattr(evaluation, "BLOCK_BYTES", 8 * graph.num_entities * 4)  # 4 queries per block
    assert len(queries) > 100 * 4  # so a worker that is not stopped starts many more blocks

    class BlockFailed(Exception):
        pass

    lock = threading.Lock()
    started = {}  # thread name: blocks started
    after_error = {}  # thread name: blocks started after the error
    failed = threading.Event()
    both_ranking = threading.Barrier(2, timeout=30)
    rank_block = evaluation._rank_block

    def failing_rank_block(*args):
        name = threading.current_thread().name
        with lock:
            started[name] = count = started.get(name, 0) + 1
            if failed.is_set():
                after_error[name] = after_error.get(name, 0) + 1
        if count == 1:
            both_ranking.wait()  # each worker holds a block
        if name == failing and count == 2:
            failed.set()
            raise BlockFailed(name)
        return rank_block(*args)

    fresh_pool.setattr(evaluation, "_rank_block", failing_rank_block)
    with pytest.raises(BlockFailed, match=failing):
        rank_queries(params, queries)
    assert set(started) == {"chainlens-rank_0", "chainlens-rank_1"}
    assert failing not in after_error and all(count <= 1 for count in after_error.values())
    assert not rank_threads()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_ranks_with_its_own_pool(ranking_case, fresh_pool):
    graph, triples, queries = ranking_case
    params = init_params(ModelKind.TRANSE, graph.num_entities, len(RelationType), TrainConfig(dim=8, seed=5))
    fresh_pool.setattr(evaluation, "RANK_WORKERS", 2)
    expected = rank_queries(params, queries)["raw"]
    pid = os.fork()
    if pid == 0:  # child: exit at once, never return into pytest
        code = 1
        try:
            code = 0 if np.array_equal(rank_queries(params, queries)["raw"], expected) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung ranking on the pool it inherited")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_public_functions_run_on_the_calling_thread(ranking_case, fresh_pool):
    """The pool's workers call no public function of models or evaluation:
    a tracer that wraps those (it keeps one span stack, for one thread) sees
    every call on the calling thread."""
    graph, triples, queries = ranking_case
    fresh_pool.setattr(evaluation, "RANK_WORKERS", 2)
    calls = []

    def recorder(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for name, m in sys.modules.items() if name.startswith("chainlens.")]
    for module in (models, evaluation):
        for name, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__:
                wrapped = recorder(name, fn)
                for owner in modules:
                    if vars(owner).get(name) is fn:
                        fresh_pool.setattr(owner, name, wrapped)
    index = evaluation.build_filter_index([triples])
    for kind in (ModelKind.TUCKER, ModelKind.ROTATE):  # a scored block, and a screened one
        params = init_params(kind, graph.num_entities, len(RelationType), TrainConfig(dim=8, seed=5))
        evaluation.rank_queries(params, queries, index)
        evaluation.evaluate(params, queries, index)
    assert {"rank_queries", "evaluate", "build_filter_index", "block_rows"} <= {name for name, _ in calls}
    assert {thread for _, thread in calls} == {threading.main_thread()}


def test_batched_ranks_equal_rank_object_on_tie_tables(monkeypatch):
    n = 9
    rng = np.random.default_rng(8)
    p = table_params({0: np.zeros((n, n)), 1: rng.integers(0, 3, size=(n, n)).astype(float)}, n)
    queries = np.column_stack([rng.integers(n, size=60), rng.integers(2, size=60), rng.integers(n, size=60)])
    index = build_filter_index([queries[::3]])
    candidates = np.zeros((2, n), dtype=bool)
    candidates[0, [1, 2, 4, 7]] = candidates[1, [0, 3, 8]] = True
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * n * 4)  # 4 queries per block
    assert block_rows(8 * n) == 4
    for policy in TIE_POLICIES:
        for cand in (None, candidates):
            ranks = rank_queries(p, queries, index, policy, cand)
            for setting in SETTINGS:
                np.testing.assert_array_equal(ranks[setting], reference_ranks(p, queries, index, setting, policy, cand))


@pytest.mark.parametrize("policy", TIE_POLICIES)
def test_non_finite_true_score_ranks_last(policy):
    n = 7
    all_nan = init_params(ModelKind.COMPLEX, n, 2, TrainConfig(dim=4, seed=1))
    all_nan.blocks["entity"][:] = np.nan
    queries = np.array([[0, 0, 3], [1, 1, 2], [4, 0, 4]])
    index = build_filter_index([np.array([[0, 0, 5]])])
    for setting, first_rank in (("raw", n), ("filtered", n - 1)):
        ranks = rank_queries(all_nan, queries, index, policy)[setting]
        np.testing.assert_array_equal(ranks, [first_rank, n, n])
        np.testing.assert_array_equal(ranks, reference_ranks(all_nan, queries, index, setting, policy))
        report = evaluate(all_nan, queries, index, setting=setting)  # the same ranks under every policy
        assert report.mrr == pytest.approx(np.mean(1.0 / ranks)) and report.hits[1] == 0.0
    # only the true object's score is NaN; every other candidate is finite
    only_true = init_params(ModelKind.COMPLEX, n, 2, TrainConfig(dim=4, seed=1))
    only_true.blocks["entity"][3] = np.nan
    assert np.isfinite(np.delete(evaluation.score_objects(only_true, 0, 0), 3)).all()
    result = rank_object(only_true, Query(0, 0, 3), setting="raw", tie_policy=policy)
    assert result.rank == n == result.num_candidates
    assert rank_queries(only_true, queries[:1], None, policy)["raw"][0] == n
    # an infinite true score outranks nothing either
    inf_true = ModelParams(kind=ModelKind.RESCAL, dim=1, num_entities=3, num_relations=1, seed=0,
                           blocks={"entity": np.array([[1.0], [1.0], [np.inf]]), "relation": np.ones((1, 1, 1))})
    assert rank_object(inf_true, Query(0, 0, 2), setting="raw", tie_policy=policy).rank == 3
    assert rank_queries(inf_true, np.array([[0, 0, 2]]), None, policy)["raw"][0] == 3


# -- per-relation table ------------------------------------------------------

def _report(per_rel: dict[int, float]) -> EvalReport:
    per = {
        rel: PerRelationMetrics(mrr=v, hits={1: v, 3: v, 10: v}, count=1)
        for rel, v in per_rel.items()
    }
    return EvalReport(
        mrr=float(np.mean(list(per_rel.values()))),
        hits={1: 0.0, 3: 0.0, 10: 0.0},
        per_relation=per,
        setting="filtered",
        tie_policy="realistic",
        num_queries=len(per_rel),
    )


def test_per_relation_table_single_cell():
    table = per_relation_table({"m": _report({0: 0.42})})
    assert table.mrr.shape == (1, 1)
    assert table.mrr[0, 0] == pytest.approx(0.42)
    assert table.ordinal[0, 0] == 1


def test_per_relation_table_identical_reports_identical_columns():
    r = _report({0: 0.3, 1: 0.6, 2: 0.1})
    table = per_relation_table({"a": r, "b": r})
    np.testing.assert_array_equal(table.mrr[:, 0], table.mrr[:, 1])
    np.testing.assert_array_equal(table.ordinal[:, 0], table.ordinal[:, 1])
    assert list(table.ordinal[:, 0]) == [2, 1, 3]  # rels sorted 0,1,2 -> mrr .3,.6,.1


def test_per_relation_table_vocabulary_mismatch():
    with pytest.raises(VocabularyMismatch):
        per_relation_table({"a": _report({0: 0.3}), "b": _report({0: 0.3, 1: 0.4})})


def test_isolated_bipartite_relation_scores_worst():
    """Objects reachable only through one relation are hardest to predict.

    Relations 0 and 1 funnel every subject onto a single popular object, so
    a trained model nails their held-out triples; relation 2 pairs otherwise
    disconnected left/right entities at random, so its held-out triples stay
    near chance and its per-relation MRR lands strictly lowest.
    """
    rng = np.random.default_rng(6)
    hub, scope = 0, 1
    companies = list(range(2, 22))
    lefts = list(range(22, 34))
    rights = list(range(34, 40))
    train_triples = []
    test_triples = []
    for i, c in enumerate(companies):
        (test_triples if i < 3 else train_triples).append((c, 0, hub))
        (test_triples if i < 3 else train_triples).append((c, 1, scope))
    for i, l in enumerate(lefts):
        first, second = rng.choice(len(rights), size=2, replace=False)
        train_triples.append((l, 2, rights[first]))
        (test_triples if i < 3 else train_triples).append((l, 2, rights[second]))
    train_arr = np.array(sorted(set(train_triples)), dtype=np.int64)
    test_arr = np.array(sorted(set(test_triples)), dtype=np.int64)
    cfg = TrainConfig(dim=16, learning_rate=0.01, max_epochs=200, eval_every=200, batch_size=64, seed=6)
    params, _ = train(ModelKind.ROTATE, train_arr, test_arr, 40, 3, cfg)
    filter_index = build_filter_index([train_arr, test_arr])
    report = evaluate(params, test_arr, filter_index, setting="filtered")
    by_rel = {rel: m.mrr for rel, m in report.per_relation.items()}
    assert set(by_rel) == {0, 1, 2}
    assert by_rel[2] < by_rel[0] and by_rel[2] < by_rel[1]


def test_type_constrained_candidates_restrict_ranking():
    from chainlens.graph import EntityType, Graph, RELATION_INDEX

    g = Graph()
    s = g.add_entity("s", EntityType.SUPPLIER)
    scopes = [g.add_entity(f"b{i}", EntityType.BUSINESS_SCOPE) for i in range(3)]
    g.add_entity("c", EntityType.COUNTRY)
    g.add_triple(s, RelationType.RELATED_TO, scopes[0], DEFAULT_SCHEMA)
    cand = type_constrained_candidates(g, DEFAULT_SCHEMA)
    rel = RELATION_INDEX[RelationType.RELATED_TO]
    assert cand.shape == (len(RelationType), g.num_entities) and cand.dtype == bool
    assert np.flatnonzero(cand[rel]).tolist() == scopes

    # with all-tie scores, restricting candidates shrinks the realistic rank
    p = table_params({rel: np.zeros((5, 5))}, 5)
    unconstrained = rank_object(p, Query(s, rel, scopes[0]), setting="raw")
    constrained = rank_object(p, Query(s, rel, scopes[0]), setting="raw", candidate_index=cand)
    assert unconstrained.num_candidates == 5
    assert constrained.num_candidates == 3
    assert constrained.rank == 2.0  # (3 + 1) / 2
    assert unconstrained.rank == 3.0


# -- serialization -----------------------------------------------------------

def test_report_text_and_csv(tmp_path):
    p, queries = ranks_fixture_params()
    report = evaluate(p, queries, None, setting="raw")
    text = report.to_text()
    assert "mrr: 0.583333" in text
    assert "supplies_to" in text
    csv_path = tmp_path / "report.csv"
    report.to_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "relation,queries,mrr,hits@1,hits@3,hits@10"
    assert lines[1].startswith("ALL,3,0.583333")


def test_reports_name_built_in_relations_and_number_the_rest():
    rel = len(RelationType)  # one past the built-in relations
    report = EvalReport.from_ranks(np.array([[0, 0, 1], [0, rel, 1]]), np.array([1.0, 2.0]), "raw", "realistic")
    assert [line.split("\t")[0] for line in report.to_text().splitlines()[-2:]] == ["supplies_to", str(rel)]
    table_text = per_relation_table({"M": report}).to_text()
    assert [line.split("\t")[0] for line in table_text.splitlines()[1:]] == ["supplies_to", str(rel)]

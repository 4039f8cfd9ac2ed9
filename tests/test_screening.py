"""TransE and RotatE ranked from a float32 screen, settled in float64.

The ranks must equal those that the scalar reference rank_object gives from
score_objects' exact float64 scores, whatever the embeddings: exact ties,
near ties, float32 underflow, and magnitudes the screen must not trust.
Every model's blocks go through the same ranker, which must reuse its masks.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlens.evaluation as evaluation
import chainlens.models as models
from chainlens.evaluation import SETTINGS, TIE_POLICIES, Query, build_filter_index, rank_object, rank_queries
from chainlens.models import ModelKind, init_params, score_objects
from chainlens.training import TrainConfig

DISTANCE_KINDS = [ModelKind.TRANSE, ModelKind.ROTATE]


def float64_ranks(params, queries, index, policy, candidates):
    """Raw and filtered ranks of each query from the scalar reference, rank_object."""
    return np.array([[rank_object(params, Query(*map(int, query)), index, setting, policy, candidates).rank
                      for query in queries] for setting in SETTINGS])


def assert_ranks_equal_float64(params, queries, index, candidates):
    for policy in TIE_POLICIES:
        for filt in (None, index):
            for cand in (None, candidates):
                ranks = rank_queries(params, queries, filt, policy, cand)
                expected = float64_ranks(params, queries, filt, policy, cand)
                for i, setting in enumerate(SETTINGS):
                    assert ranks[setting].tobytes() == expected[i].tobytes(), (policy, setting, filt, cand)


def edge_case(kind, case, seed=3, n_ent=60, n_rel=3):
    """Params, queries, a filter index and a candidate table where the screen meets ``case``."""
    rng = np.random.default_rng(seed)
    p = init_params(kind, n_ent, n_rel, TrainConfig(dim=4, seed=seed))
    E = p.blocks["entity"].view(np.float64)
    queries = np.column_stack([rng.integers(n_ent, size=40), rng.integers(n_rel, size=40),
                               rng.integers(n_ent, size=40)])
    if case == "duplicates":  # exact ties with the true objects
        E[50:55] = E[queries[:5, 2]]
        E[55:] = E[queries[0, 2]]
    elif case == "one ulp":  # an entity 1 ulp from the true object in one coordinate
        for j, o in zip(range(50, 60), queries[:10, 2]):
            E[j] = E[o]
            E[j, j % E.shape[1]] = np.nextafter(E[o, j % E.shape[1]], np.inf if j % 2 else -np.inf)
    elif case == "underflow":  # float32 subnormals, and values below them
        E *= 1e-40 / np.abs(E).max()
        E[::7] *= 1e-6
        if kind is ModelKind.TRANSE:
            p.blocks["relation"] *= 1e-40
    elif case == "true object at the query":  # E[o] = E[s] + R[r] or E[s] exp(i theta_r): every |q - e| is 0
        queries[:20, 0], queries[:20, 2] = np.arange(20), np.arange(30, 50)
        s, r = queries[:20, 0], queries[:20, 1]
        rows = p.blocks["entity"]
        if kind is ModelKind.TRANSE:
            rows[30:50] = rows[s] + p.blocks["relation"][r]
        else:
            rows[30:50] = rows[s] * np.exp(1j * p.blocks["relation"][r])
    elif case == "huge entities":  # the whole call falls back to float64
        E *= 2.0 ** 60
    elif case == "huge relation":  # the blocks of one relation fall back
        if kind is ModelKind.TRANSE:
            p.blocks["relation"][1] = 2.0 ** 61
        else:
            p.blocks["relation"][1, 0] = np.nan
    index = build_filter_index([queries[::2], np.column_stack([queries[:, :2], np.roll(queries[:, 2], 1)])])
    candidates = rng.random((n_rel, n_ent)) < 0.6
    return p, queries, index, candidates


@pytest.mark.parametrize("case", ["random", "duplicates", "one ulp", "underflow", "true object at the query",
                                  "huge entities", "huge relation"])
@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_screened_ranks_equal_float64_ranks(kind, case, monkeypatch):
    """Under every tie policy, raw and filtered, with and without a candidate
    table, in blocks of 8 queries on the rank pool."""
    p, queries, index, candidates = edge_case(kind, case)
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * 8 * p.num_entities)
    assert_ranks_equal_float64(p, queries, index, candidates)


@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_edge_cases_reach_the_band_and_the_fallback(kind):
    """The edge cases do what they are named for: exact ties settled in float64,
    and blocks the screen refuses."""
    p, queries, _, _ = edge_case(kind, "duplicates")
    scorer = models._ScreenedScorer(p)
    ws = scorer.workspace(len(queries))
    s, r, o = queries.T
    screen, lower, upper, true_score, _ = scorer.bracketed(s, r, o, ws)
    assert screen.shape == (len(o), p.num_entities) and screen.dtype == np.float32 and (lower < true_score).all()
    assert (true_score < upper).all()
    exact = score_objects(p, s, r)
    assert true_score.tobytes() == exact[np.arange(len(o)), o].tobytes()
    ties = exact == true_score[:, None]
    assert ties.sum() > len(o)  # duplicate rows tie their true objects
    assert (screen[ties] >= np.repeat(lower, ties.sum(axis=1))).all()  # and fall in the band
    assert (screen[ties] <= np.repeat(upper, ties.sum(axis=1))).all()
    _, screen, below, above = scorer.screen(s, r, ws)
    assert_within(exact, screen, below, above)
    p, queries, _, _ = edge_case(kind, "true object at the query")
    scorer = models._ScreenedScorer(p)
    s, r, o = queries[:20].T
    _, screen, below, above = scorer.screen(s, r, scorer.workspace(len(s)))
    exact = score_objects(p, s, r)
    assert (exact[np.arange(len(o)), o] == 0).all()  # the squares cancel to 0
    assert_within(exact, screen, below, above)
    for case in ("huge entities", "huge relation"):
        p, queries, _, _ = edge_case(kind, case)
        scorer = models._ScreenedScorer(p)
        s, r, o = queries[queries[:, 1] == 1].T
        assert scorer.screen(s, r, scorer.workspace(len(s)))[1] is None
        scores = scorer.bracketed(s, r, o, scorer.workspace(len(s)))[0]
        assert scores.dtype == np.float64 and scores.tobytes() == score_objects(p, s, r).tobytes()
    assert models._ScreenedScorer(edge_case(kind, "underflow")[0]).screenable


def random_rows(rng, shape, lo, hi):
    """Signed values of magnitudes log-uniform in [10^lo, 10^hi], some of them 0."""
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(lo, hi, size=shape)
    values[rng.random(shape) < 0.1] = 0.0
    return values


def assert_within(exact, screen, below, above):
    """exact - screen lies in [-above, below], row by row and elementwise."""
    diff = exact - screen.astype(np.float64)
    assert (-above[:, None] <= diff).all() and (diff <= below[:, None]).all()


def assert_rotate_screen_within_bound(q, E):
    """RotatE's screen of the query rows q against the entities E (float64, (re, im) column pairs) lies within
    its bounds of the float64 kernel's block.  The query rows are entities of their own, rotated by 0."""
    k, n_ent = len(q), len(E)
    p = init_params(ModelKind.ROTATE, n_ent + k, 1, TrainConfig(dim=q.shape[1] // 2, seed=0))
    p.blocks["entity"].view(np.float64)[:] = np.vstack([E, q])
    p.blocks["relation"][:] = 0.0
    s, r = np.arange(n_ent, n_ent + k), np.zeros(k, dtype=np.int64)
    scorer = models._ScreenedScorer(p)
    _, screen, below, above = scorer.screen(s, r, scorer.workspace(k))
    assert screen is not None
    assert (above <= below).all()
    assert_within(scorer.exact(s, r), screen, below, above)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rotate=st.booleans(), lo=st.floats(-30, 15), span=st.floats(0, 45),
       half_width=st.integers(1, 24), n_ent=st.integers(1, 20), k=st.integers(1, 4))
def test_float32_scores_lie_within_the_bound(seed, rotate, lo, span, half_width, n_ent, k):
    """|s32 - s64| <= δ elementwise for TransE, and s64 - s32 within [-δ, δ +
    RotatE's offsets] for RotatE's screen, for magnitudes from 1e-30 to 1e15,
    entity rows near query rows (cancellation) included."""
    rng = np.random.default_rng(seed)
    hi = min(lo + span, 15.0)
    width = 2 * half_width if rotate else half_width + rng.integers(0, 2)
    q = random_rows(rng, (k, width), lo, hi)
    E = random_rows(rng, (n_ent, width), lo, hi)
    E[: min(k, n_ent)] = q[: min(k, n_ent)] * (1 + random_rows(rng, (min(k, n_ent), width), -8, -4))
    if rotate:
        assert_rotate_screen_within_bound(q, E)
        return
    s64 = np.empty((k, n_ent))
    models._negated_distance_sums(q, np.ascontiguousarray(E.T), [np.empty((k, n_ent))], s64)
    s32 = np.empty((k, n_ent), dtype=np.float32)
    models._negated_distance_sums(q.astype(np.float32), np.ascontiguousarray(E.T, dtype=np.float32),
                                  [np.empty((k, n_ent), dtype=np.float32)], s32)
    l1 = np.abs(q).sum(axis=1) + np.abs(E).sum(axis=1).max()
    delta = models._distance_bound(l1, width, False)
    assert (np.abs(s32.astype(np.float64) - s64) <= delta[:, None]).all()


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lo=st.floats(-30, 15), span=st.floats(0, 45), terms=st.integers(1, 24),
       n_ent=st.integers(1, 20), k=st.integers(1, 4), huge=st.booleans())
def test_rotate_screen_lies_within_its_bounds(seed, lo, span, terms, n_ent, k, huge):
    """exact - screen lies in [-δ, δ + (1 + γ_n)(1 + u) Σ_j √(2 c_ij)] elementwise,
    where the GEMM's squares cancel: entity coordinates equal to the query's
    (|q_j - e_j| = 0) or one float64 ulp from them, magnitudes from 1e-30 to
    1e15, and one coordinate of a row at ±2^59, just inside the screen's limit."""
    rng = np.random.default_rng(seed)
    hi = min(lo + span, 15.0)
    q = random_rows(rng, (k, 2 * terms), lo, hi)
    E = random_rows(rng, (n_ent, 2 * terms), lo, hi)
    for i in range(n_ent):
        j = rng.random(terms) < 0.5  # complex coordinates the entity shares with a query row, or misses by an ulp
        cols = np.repeat(j, 2)
        E[i, cols] = q[i % k, cols] if i % 3 else np.nextafter(q[i % k, cols], rng.choice([-np.inf, np.inf]))
    if huge:
        for rows in (q, E):
            rows[rng.integers(len(rows)), rng.integers(2 * terms)] = rng.choice([-1.0, 1.0]) * 2.0 ** 59
    assert_rotate_screen_within_bound(q, E)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(DISTANCE_KINDS), scale=st.floats(-30, 15),
       levels=st.integers(1, 4))
def test_screened_ranks_equal_float64_ranks_on_tie_heavy_tables(seed, kind, scale, levels):
    """Embeddings on a few levels, so that many candidates tie the true object
    or miss it by a rounding, at magnitudes from 1e-30 to 1e15."""
    rng = np.random.default_rng(seed)
    n_ent, n_rel = 12, 2
    p = init_params(kind, n_ent, n_rel, TrainConfig(dim=3, seed=0))
    E = p.blocks["entity"].view(np.float64)
    E[:] = rng.integers(-levels, levels + 1, size=E.shape) * 10.0 ** scale
    if kind is ModelKind.TRANSE:
        p.blocks["relation"][:] = rng.integers(-levels, levels + 1, size=p.blocks["relation"].shape) * 10.0 ** scale
    else:
        p.blocks["relation"][:] = rng.integers(0, 4, size=p.blocks["relation"].shape) * (np.pi / 2)
    queries = np.column_stack([rng.integers(n_ent, size=10), rng.integers(n_rel, size=10),
                               rng.integers(n_ent, size=10)])
    index = build_filter_index([queries[::3]])
    candidates = rng.random((n_rel, n_ent)) < 0.7
    assert_ranks_equal_float64(p, queries, index, candidates)


@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_pair_scores_equal_score_objects_bit_for_bit(kind):
    n_ent = 700
    p = init_params(kind, n_ent, 3, TrainConfig(dim=16, seed=7))
    rng = np.random.default_rng(7)
    s, r = rng.integers(n_ent, size=5), rng.integers(3, size=5)
    o = rng.integers(n_ent, size=5)
    scorer = models._ScreenedScorer(p)
    ws = scorer.workspace(len(s))
    q = scorer.screen(s, r, ws)[0]
    rows, objs = np.divmod(np.arange(len(s) * n_ent), n_ent)  # every pair: many chunks of PAIR_ROWS
    assert len(rows) > 3 * scorer.PAIR_ROWS
    exact = scorer.pair_scores(q, rows, objs, ws)
    assert exact.tobytes() == score_objects(p, s, r).reshape(-1).tobytes()
    scorer.screenable = False  # the fallback's exact float64 block
    scores, lower, upper, true_score, settle = scorer.bracketed(s, r, o, ws)
    assert scores.tobytes() == score_objects(p, s, r).tobytes()
    assert lower.tobytes() == upper.tobytes() == true_score.tobytes()
    assert true_score.tobytes() == scores[np.arange(len(scores)), o].tobytes()
    assert settle(np.array([0, 1]), np.array([4, 9])).tobytes() == scores[[0, 1], [4, 9]].tobytes()


def ranker_masks(k, n_ent):
    """The ranker's two (k, N) bool masks, as rank_queries allocates them for each worker."""
    return np.empty((2, k, n_ent), dtype=bool)


def rank_one_block(scorer, s, r, o, ws, masks, index):
    """Raw and filtered ranks of one block, ranked as rank_queries ranks it."""
    return np.array(evaluation._rank_block(*scorer.bracketed(s, r, o, ws), s, r, o, index, None, "realistic", masks))


@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_warm_screened_block_allocates_less_than_its_query_rows(kind):
    """Every (k, N) and (k, d) buffer of a screened block is the workspace's:
    what a warm block allocates is per-row counts and the few pairs it settles."""
    n_ent, k = 200, 1024
    p = init_params(kind, n_ent, 3, TrainConfig(dim=64, seed=2))
    rng = np.random.default_rng(2)
    s, r, o = rng.integers(n_ent, size=k), rng.integers(3, size=k), rng.integers(n_ent, size=k)
    index = build_filter_index([np.column_stack([s, r, o])[::2]])
    scorer = models._ScreenedScorer(p)
    ws, masks = scorer.workspace(k), ranker_masks(k, n_ent)
    expected = rank_one_block(scorer, s, r, o, ws, masks, index)
    tracemalloc.start()
    try:
        ranks = rank_one_block(scorer, s, r, o, ws, masks, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ws["q"].nbytes, (peak, ws["q"].nbytes)
    assert ranks.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(ranks, float64_ranks(p, np.column_stack([s, r, o]), index, "realistic", None))


@pytest.mark.parametrize("kind", list(ModelKind))
def test_warm_ranked_block_allocates_less_than_one_mask(kind):
    """Every model's ranking reuses the ranker's two (k, N) masks, which no
    scorer's workspace holds: a warm block, ranked raw and filtered,
    allocates less than one of them."""
    n_ent, k = 400, 1024
    p = init_params(kind, n_ent, 3, TrainConfig(dim=64, seed=2))
    rng = np.random.default_rng(2)
    s, r, o = rng.integers(n_ent, size=k), np.full(k, 1), rng.integers(n_ent, size=k)  # one relation, as in a block
    index = build_filter_index([np.column_stack([s, r, o])[::2]])
    scorer = models._block_scorer(p, np.unique(r))
    ws, masks = scorer.workspace(k), ranker_masks(k, n_ent)
    assert not any(buf.dtype == bool for buf in ws.values())
    expected = rank_one_block(scorer, s, r, o, ws, masks, index)
    tracemalloc.start()
    try:
        ranks = rank_one_block(scorer, s, r, o, ws, masks, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < masks[0].nbytes, (peak, masks[0].nbytes)
    assert ranks.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(ranks[:, :50], float64_ranks(p, np.column_stack([s, r, o])[:50], index,
                                                               "realistic", None))


def test_screened_scorer_holds_no_float64_entity_copy():
    p = init_params(ModelKind.ROTATE, 500, 3, TrainConfig(dim=16, seed=1))
    scorer = models._ScreenedScorer(p)
    assert scorer.B.dtype == np.float32 and scorer.B.shape == (16, 4, 500) and not hasattr(scorer, "E_t")
    assert np.shares_memory(scorer.E64, p.blocks["entity"])
    ws = scorer.workspace(9)
    assert ws["planes32"].dtype == np.float32 and ws["planes32"].shape == (2, 9, 500)
    assert all(buf.dtype == np.float32 for buf in ws.values() if buf.shape[-1] == 500)


@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_each_true_object_is_scored_once_in_float64(kind, monkeypatch):
    """The true scores are the first pairs settled; neither the band nor the filter settles them again."""
    p, queries, index, _ = edge_case(kind, "duplicates")
    s, r, o = queries.T
    settled = []
    pair_scores = models._ScreenedScorer.pair_scores

    def recording(self, q, rows, objs, ws):
        settled.append((rows.copy(), objs.copy()))
        return pair_scores(self, q, rows, objs, ws)

    monkeypatch.setattr(models._ScreenedScorer, "pair_scores", recording)
    scorer = models._ScreenedScorer(p)
    ranks = rank_one_block(scorer, s, r, o, scorer.workspace(len(s)), ranker_masks(len(s), p.num_entities), index)
    (true_rows, true_objs), *after = settled
    assert (true_rows == np.arange(len(o))).all() and (true_objs == o).all()
    assert len(after) == 2 and sum(map(len, (rows for rows, _ in after))) > 0
    for rows, objs in after:
        assert not (objs == o[rows]).any()
    np.testing.assert_array_equal(ranks, float64_ranks(p, queries, index, "realistic", None))

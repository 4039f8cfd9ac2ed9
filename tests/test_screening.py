"""All five models ranked from a float32 screen, settled with exact float64 scores.

The ranks must equal those that the scalar reference rank_object gives from
score_objects' exact float64 scores, whatever the embeddings: exact ties,
near ties, float32 underflow, and magnitudes the screen must not trust.
TransE and RotatE are screened one block of all entities at a time, RESCAL,
TuckER and ComplEx one GEMM per tile of entities.  A pair's exact score is a
sum in a fixed order, so its bits do not depend on how many queries share a
job, nor on the BLAS thread count.  Every model's jobs go through the same
ranker, which must reuse its masks.
"""
import contextlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainlens
import chainlens.evaluation as evaluation
import chainlens.models as models
from chainlens.evaluation import SETTINGS, TIE_POLICIES, Query, build_filter_index, rank_object, rank_queries
from chainlens.models import ModelKind, init_params, score_objects
from chainlens.training import TrainConfig

from reference_models import exact_distance_scores, exact_dot_scores, exact_object_scores

ALL_KINDS = list(ModelKind)
DISTANCE_KINDS = [ModelKind.TRANSE, ModelKind.ROTATE]
GEMM_KINDS = [ModelKind.RESCAL, ModelKind.COMPLEX, ModelKind.TUCKER]


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


def scorer_of(params):
    """The ranking scorer of ``params``, for queries of every relation."""
    return models._ScreenedScorer(params, np.arange(params.num_relations))


def whole(tiles):
    """A job's tiles as one (k, N) array, each copied before the next is scored over it."""
    return np.hstack([tile.copy() for _, tile in tiles])


@contextlib.contextmanager
def tiles_of(width):
    """RESCAL, TuckER and ComplEx screened in tiles of ``width`` entities (no fixture: Hypothesis tests use it)."""
    saved, models._TILE = models._TILE, width
    try:
        yield
    finally:
        models._TILE = saved


EDGE_CASES = ["random", "duplicates", "one ulp", "underflow", "huge entities", "huge relation", "nan relation"]


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
    elif case == "huge entities":  # the whole call falls back to float64: L1 norms, or L2 norms, of 2^60 or more
        E *= 2.0 ** (60 if kind in DISTANCE_KINDS else 62)
    elif case == "huge relation":  # the jobs of one relation fall back
        if kind is ModelKind.TRANSE:
            p.blocks["relation"][1] = 2.0 ** 61
        elif kind is ModelKind.ROTATE:
            p.blocks["relation"][1, 0] = np.nan
        else:  # query rows of an L2 norm past 2^60
            p.blocks["relation"][1] *= 2.0 ** 64
    elif case == "nan relation":  # the query rows of one relation are not finite
        p.blocks["relation"][1].flat[0] = np.nan
    index = build_filter_index([queries[::2], np.column_stack([queries[:, :2], np.roll(queries[:, 2], 1)])])
    candidates = rng.random((n_rel, n_ent)) < 0.6
    return p, queries, index, candidates


@pytest.mark.parametrize("kind, case", [(kind, case) for kind in ALL_KINDS for case in EDGE_CASES]
                         + [(kind, "true object at the query") for kind in DISTANCE_KINDS])
def test_screened_ranks_equal_float64_ranks(kind, case, monkeypatch):
    """Under every tie policy, raw and filtered, with and without a candidate
    table, in jobs of 8 queries on the rank pool, and for RESCAL, TuckER and
    ComplEx in tiles of 16 entities, the last one short."""
    p, queries, index, candidates = edge_case(kind, case)
    monkeypatch.setattr(models, "_TILE", 16)
    scorer = scorer_of(p)
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * scorer.row_bytes)
    assert evaluation.block_rows(scorer.row_bytes) == 8
    monkeypatch.setattr(evaluation, "PARALLEL_PAIRS", 0)  # the pool, however few the pairs
    assert_ranks_equal_float64(p, queries, index, candidates)


def assert_falls_back(p, s, r, o):
    """The screen refuses the job, which is ranked from its exact float64 scores, tile by tile: the scores
    written out, bit for bit."""
    scorer = scorer_of(p)
    assert scorer.screen(s, r, scorer.workspace(len(s)))[1] is None
    tiles, lower, upper, true_score, _ = scorer.bracketed(s, r, o, scorer.workspace(len(s)))
    assert lower.tobytes() == upper.tobytes() == true_score.tobytes()
    scores = whole(tiles)
    assert scores.dtype == np.float64 and scores.tobytes() == exact_object_scores(p, s, r).tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_edge_cases_reach_the_band_and_the_fallback(kind, monkeypatch):
    """The edge cases do what they are named for: exact ties settled in float64,
    and jobs the screen refuses."""
    monkeypatch.setattr(models, "_TILE", 16)
    p, queries, _, _ = edge_case(kind, "duplicates")
    scorer = scorer_of(p)
    ws = scorer.workspace(len(queries))
    s, r, o = queries.T
    tiles, lower, upper, true_score, _ = scorer.bracketed(s, r, o, ws)
    screen = whole(tiles)
    assert screen.shape == (len(o), p.num_entities) and screen.dtype == np.float32 and (lower < true_score).all()
    assert (true_score < upper).all()
    exact = score_objects(p, s, r)
    assert true_score.tobytes() == exact[np.arange(len(o)), o].tobytes()
    ties = exact == true_score[:, None]
    assert ties.sum() > len(o)  # duplicate rows tie their true objects
    assert (screen[ties] >= np.repeat(lower, ties.sum(axis=1))).all()  # and fall in the band
    assert (screen[ties] <= np.repeat(upper, ties.sum(axis=1))).all()
    _, tiles, below, above = scorer.screen(s, r, ws)
    assert_within(exact, whole(tiles), below, above)
    if kind in DISTANCE_KINDS:
        p, queries, _, _ = edge_case(kind, "true object at the query")
        scorer = scorer_of(p)
        s, r, o = queries[:20].T
        _, tiles, below, above = scorer.screen(s, r, scorer.workspace(len(s)))
        exact = score_objects(p, s, r)
        assert (exact[np.arange(len(o)), o] == 0).all()  # the squares cancel to 0
        assert_within(exact, whole(tiles), below, above)
    for case in ("huge entities", "huge relation", "nan relation"):
        p, queries, _, _ = edge_case(kind, case)
        assert_falls_back(p, *queries[queries[:, 1] == 1].T)
    assert scorer_of(edge_case(kind, "underflow")[0]).screenable


def random_rows(rng, shape, lo, hi):
    """Signed values of magnitudes log-uniform in [10^lo, 10^hi], some of them 0."""
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(lo, hi, size=shape)
    values[rng.random(shape) < 0.1] = 0.0
    return values


def assert_within(exact, screen, below, above):
    """exact - screen lies in [-above, below], row by row and elementwise."""
    diff = exact - screen.astype(np.float64)
    assert (-above[:, None] <= diff).all() and (diff <= below[:, None]).all()


def assert_screen_within_bound(kind, q, E):
    """RotatE's or ComplEx's screen of the query rows q against the entities E (float64, (re, im) column pairs)
    lies within its bounds of the exact block.  The query rows are entities of their own, rotated by 0 or
    multiplied by 1, and ComplEx's entities are screened in tiles of 7."""
    k, n_ent = len(q), len(E)
    p = init_params(kind, n_ent + k, 1, TrainConfig(dim=q.shape[1] // 2, seed=0))
    p.blocks["entity"].view(np.float64)[:] = np.vstack([E, q])
    p.blocks["relation"][:] = 0.0 if kind is ModelKind.ROTATE else 1.0
    s, r = np.arange(n_ent, n_ent + k), np.zeros(k, dtype=np.int64)
    with tiles_of(7):
        scorer = scorer_of(p)
        _, tiles, below, above = scorer.screen(s, r, scorer.workspace(k))
        assert tiles is not None
        screen = whole(tiles)
    assert (above <= below).all()
    assert_within(score_objects(p, s, r), screen, below, above)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(["TransE", "RotatE", "dot"]), lo=st.floats(-30, 15),
       span=st.floats(0, 45), half_width=st.integers(1, 24), n_ent=st.integers(1, 20), k=st.integers(1, 4))
def test_float32_scores_lie_within_the_bound(seed, model, lo, span, half_width, n_ent, k):
    """|s32 - s64| <= δ elementwise for TransE and for the float32 GEMM of
    RESCAL, TuckER and ComplEx (at odd widths too, and through ComplEx's
    tiled screen at even ones), and s64 - s32 within [-δ, δ + RotatE's
    offsets] for RotatE's screen, for magnitudes from 1e-30 to 1e15, entity
    rows near query rows (cancellation) included."""
    rng = np.random.default_rng(seed)
    hi = min(lo + span, 15.0)
    width = 2 * half_width if model == "RotatE" else half_width + rng.integers(0, 2)
    q = random_rows(rng, (k, width), lo, hi)
    E = random_rows(rng, (n_ent, width), lo, hi)
    E[: min(k, n_ent)] = q[: min(k, n_ent)] * (1 + random_rows(rng, (min(k, n_ent), width), -8, -4))
    if model == "RotatE":
        assert_screen_within_bound(ModelKind.ROTATE, q, E)
        return
    if model == "dot":
        s64 = exact_dot_scores(q, E)
        s32 = np.matmul(q.astype(np.float32), np.ascontiguousarray(E.T, dtype=np.float32))
        delta = models._dot_bound(np.linalg.norm(q, axis=1), np.linalg.norm(E, axis=1).max(), width)
        if width % 2 == 0:
            assert_screen_within_bound(ModelKind.COMPLEX, q, E)
    else:
        s64 = exact_distance_scores(q, E)
        s32 = np.empty((k, n_ent), dtype=np.float32)
        models._negated_distance_sums(q.astype(np.float32), np.ascontiguousarray(E.T, dtype=np.float32),
                                      np.empty((k, n_ent), dtype=np.float32), s32)
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
    assert_screen_within_bound(ModelKind.ROTATE, q, E)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(ALL_KINDS), scale=st.floats(-30, 15),
       levels=st.integers(1, 4))
def test_screened_ranks_equal_float64_ranks_on_tie_heavy_tables(seed, kind, scale, levels):
    """Entity embeddings on a few levels, and relations that keep them on a
    grid (quarter turns, integer matrices and cores), so that many candidates
    tie the true object or miss it by a rounding, at magnitudes from 1e-30
    to 1e15; RESCAL, TuckER and ComplEx in tiles of 5 entities."""
    rng = np.random.default_rng(seed)
    n_ent, n_rel = 12, 2
    p = init_params(kind, n_ent, n_rel, TrainConfig(dim=3, seed=0))
    E = p.blocks["entity"].view(np.float64)
    E[:] = rng.integers(-levels, levels + 1, size=E.shape) * 10.0 ** scale
    R = p.blocks["relation"]
    if kind is ModelKind.TRANSE:
        R[:] = rng.integers(-levels, levels + 1, size=R.shape) * 10.0 ** scale
    elif kind is ModelKind.ROTATE:
        R[:] = rng.integers(0, 4, size=R.shape) * (np.pi / 2)
    elif kind is ModelKind.COMPLEX:
        R[:] = np.array([1, 1j, -1, -1j])[rng.integers(0, 4, size=R.shape)]
    else:
        R[:] = rng.integers(-1, 2, size=R.shape)
        if kind is ModelKind.TUCKER:
            p.blocks["core"][:] = rng.integers(-1, 2, size=p.blocks["core"].shape)
    queries = np.column_stack([rng.integers(n_ent, size=10), rng.integers(n_rel, size=10),
                               rng.integers(n_ent, size=10)])
    index = build_filter_index([queries[::3]])
    candidates = rng.random((n_rel, n_ent)) < 0.7
    with tiles_of(5):
        assert_ranks_equal_float64(p, queries, index, candidates)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pair_scores_equal_score_objects_bit_for_bit(kind, monkeypatch):
    """Every pair of a block, in many chunks of ``PAIR_ROWS``, and the fallback's exact block in tiles of 256,
    against the exact scores written out."""
    monkeypatch.setattr(models, "_TILE", 256)
    n_ent = 700
    p = init_params(kind, n_ent, 3, TrainConfig(dim=16, seed=7))
    rng = np.random.default_rng(7)
    s, r = rng.integers(n_ent, size=5), rng.integers(3, size=5)
    o = rng.integers(n_ent, size=5)
    scorer = scorer_of(p)
    ws = scorer.workspace(len(s))
    q = scorer.screen(s, r, ws)[0]
    rows, objs = np.divmod(np.arange(len(s) * n_ent), n_ent)  # every pair: many chunks of PAIR_ROWS
    assert len(rows) > 3 * scorer.PAIR_ROWS
    exact = scorer.pair_scores(q, rows, objs, ws)
    expected = exact_object_scores(p, s, r)
    assert exact.tobytes() == expected.reshape(-1).tobytes()
    scorer.screenable = False  # the fallback's exact float64 block
    tiles, lower, upper, true_score, settle = scorer.bracketed(s, r, o, ws)
    scores = whole(tiles)
    assert scores.tobytes() == expected.tobytes()
    assert lower.tobytes() == upper.tobytes() == true_score.tobytes()
    assert true_score.tobytes() == scores[np.arange(len(scores)), o].tobytes()
    assert settle(np.array([0, 1]), np.array([4, 9])).tobytes() == scores[[0, 1], [4, 9]].tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pair_scores_of_one_pair_and_of_a_zero_row_equal_score_objects_bit_for_bit(kind):
    """Chunks of one pair and of ``PAIR_ROWS`` + 1 pairs, and a pair that must score +0.0 as the exact score
    written out does: compared as int64 views, so the sign of a zero counts."""
    n_ent = 50
    p = init_params(kind, n_ent, 3, TrainConfig(dim=64, seed=5))
    # TransE adds 0 and RotatE rotates by exp(0): the query row of (s, 0, ?) is E[s], at distance 0 from itself.
    # The other models' query rows of relation 0 are 0.
    p.blocks["relation"][0] = 0.0
    s, r = np.array([3, 8, 8]), np.array([0, 0, 1])
    scorer = scorer_of(p)
    ws = scorer.workspace(len(s))
    q = scorer.screen(s, r, ws)[0]
    expected = exact_object_scores(p, s, r)
    assert expected[0, 3].view(np.int64) == np.float64(0.0).view(np.int64)
    for rows, objs in [([0], [3]), ([1], [5]), ([0, 1, 2], [3, 8, 0]),
                       np.divmod(np.arange(scorer.PAIR_ROWS + 1) % (len(s) * n_ent), n_ent)]:
        rows, objs = np.asarray(rows), np.asarray(objs)
        got = scorer.pair_scores(q, rows, objs, ws)
        np.testing.assert_array_equal(got.view(np.int64), expected[rows, objs].view(np.int64))


EXACT_SCORES = """
import hashlib, sys
import numpy as np
from chainlens.models import ModelKind, _ScreenedScorer, init_params, score_objects
from chainlens.training import TrainConfig

digest = hashlib.sha256()
rng = np.random.default_rng(11)
for kind in ModelKind:
    p = init_params(kind, 1500, 3, TrainConfig(dim=64, seed=11))
    s, r, o = rng.integers(1500, size=256), rng.integers(3, size=256), rng.integers(1500, size=256)
    digest.update(score_objects(p, s, r).tobytes())
    scorer = _ScreenedScorer(p, np.arange(3))
    digest.update(scorer.bracketed(s, r, o, scorer.workspace(256))[3].tobytes())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("kind", GEMM_KINDS)
def test_exact_scores_have_the_same_bits_in_jobs_of_any_size(kind):
    """A pair's exact score, from score_objects blocks and from the true scores of
    ranking jobs, has the same bits in jobs of 1, 8, 19 and 256 rows.  (The
    entries of a float64 BLAS block of 1 and of 19 rows differ.)"""
    n_ent = 1000
    p = init_params(kind, n_ent, 3, TrainConfig(dim=64, seed=13))
    rng = np.random.default_rng(13)
    s, r, o = rng.integers(n_ent, size=256), np.full(256, 1), rng.integers(n_ent, size=256)
    jobs = {rows: [slice(start, start + rows) for start in range(0, 256, rows)] for rows in (1, 8, 19, 256)}
    blocks = {rows: np.vstack([score_objects(p, s[job], r[job]) for job in cut]).tobytes()
              for rows, cut in jobs.items()}
    assert len(set(blocks.values())) == 1
    scorer = scorer_of(p)
    ws = scorer.workspace(256)
    true_scores = {rows: np.concatenate([scorer.bracketed(s[job], r[job], o[job], ws)[3] for job in cut]).tobytes()
                   for rows, cut in jobs.items()}
    assert len(set(true_scores.values())) == 1
    assert true_scores[1] == np.frombuffer(blocks[1]).reshape(256, n_ent)[np.arange(256), o].tobytes()


def test_exact_scores_have_the_same_bits_on_one_and_two_blas_threads():
    """Every model's score_objects block and ranking true scores, in two fresh
    processes under ``OPENBLAS_NUM_THREADS`` 1 and 2."""
    src = str(Path(chainlens.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", EXACT_SCORES], env=env, capture_output=True, text=True,
                             timeout=300, check=True)
        digests.add(run.stdout.strip())
    assert len(digests) == 1, digests


def ranker_masks(k, tile):
    """The ranker's two bool masks, as rank_queries allocates them for each worker."""
    return np.empty((2, k * tile), dtype=bool)


def rank_one_block(scorer, s, r, o, ws, masks, index):
    """Raw and filtered ranks of one job, ranked as rank_queries ranks it."""
    bracketed = scorer.bracketed(s, r, o, ws)
    counts = evaluation._rank_block(*bracketed, s, r, o, index, None, masks)
    return np.array([evaluation._tie_rank(*setting, bracketed[3], "realistic") for setting in counts])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_warm_screened_block_allocates_less_than_its_query_rows(kind):
    """Every (k, N), (k, tile) and (k, d) buffer of a screened job is the
    workspace's: what a warm job allocates is per-row counts and bounds and
    the few pairs it settles."""
    n_ent, k = 200, 1024
    p = init_params(kind, n_ent, 3, TrainConfig(dim=64, seed=2))
    rng = np.random.default_rng(2)
    s, r, o = rng.integers(n_ent, size=k), rng.integers(3, size=k), rng.integers(n_ent, size=k)
    index = build_filter_index([np.column_stack([s, r, o])[::2]])
    scorer = scorer_of(p)
    ws, masks = scorer.workspace(k), ranker_masks(k, scorer.tile)
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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_warm_ranked_block_allocates_less_than_one_mask(kind, monkeypatch):
    """Every model's ranking reuses the ranker's two masks, which no scorer's
    workspace holds: a warm job, ranked raw and filtered, allocates less than
    one of them.  RESCAL, TuckER and ComplEx take two tiles, the second one
    short."""
    monkeypatch.setattr(models, "_TILE", 256)
    n_ent, k = 400, 1024
    p = init_params(kind, n_ent, 3, TrainConfig(dim=64, seed=2))
    rng = np.random.default_rng(2)
    s, r, o = rng.integers(n_ent, size=k), np.full(k, 1), rng.integers(n_ent, size=k)  # one relation, as in a job
    index = build_filter_index([np.column_stack([s, r, o])[::2]])
    scorer = models._ScreenedScorer(p, np.unique(r))
    ws, masks = scorer.workspace(k), ranker_masks(k, scorer.tile)
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
    scorer = scorer_of(p)
    assert scorer.B.dtype == np.float32 and scorer.B.shape == (16, 4, 500) and not hasattr(scorer, "E_t")
    assert np.shares_memory(scorer.E64, p.blocks["entity"])
    ws = scorer.workspace(9)
    assert ws["planes32"].dtype == np.float32 and ws["planes32"].shape == (2, 9, 500)
    assert all(buf.dtype == np.float32 for buf in ws.values() if buf.shape[-1] == 500)


@pytest.mark.parametrize("kind", GEMM_KINDS)
def test_gemm_scorer_holds_float32_entities_and_tile_sized_buffers(kind):
    """E transposed in float32 is the one entity copy; a workspace holds one float32 tile and no (k, N) buffer."""
    n_ent = 2500
    p = init_params(kind, n_ent, 3, TrainConfig(dim=16, seed=1))
    scorer = scorer_of(p)
    width = scorer.E64.shape[1]
    assert scorer.E_t.dtype == np.float32 and scorer.E_t.shape == (width, n_ent)
    assert np.shares_memory(scorer.E64, p.blocks["entity"])
    assert (scorer.tile, scorer.row_bytes) == (models._TILE, 4 * models._TILE)
    assert evaluation.block_rows(scorer.row_bytes) == 256  # a 1 MiB float32 tile
    ws = scorer.workspace(9)
    assert ws["tile32"].dtype == np.float32 and ws["tile32"].shape == (9 * scorer.tile,)
    assert all(n_ent not in buf.shape for buf in ws.values())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_each_true_object_is_scored_once_in_float64(kind, monkeypatch):
    """The true scores are the first pairs settled; the band and the filtered
    objects are settled together, once per job after its last tile, and
    without them."""
    monkeypatch.setattr(models, "_TILE", 16)
    p, queries, index, _ = edge_case(kind, "duplicates")
    s, r, o = queries.T
    settled = []
    pair_scores = models._ScreenedScorer.pair_scores

    def recording(self, q, rows, objs, ws):
        settled.append((rows.copy(), objs.copy()))
        return pair_scores(self, q, rows, objs, ws)

    monkeypatch.setattr(models._ScreenedScorer, "pair_scores", recording)
    scorer = scorer_of(p)
    ranks = rank_one_block(scorer, s, r, o, scorer.workspace(len(s)), ranker_masks(len(s), scorer.tile), index)
    (true_rows, true_objs), (rows, objs) = settled
    assert (true_rows == np.arange(len(o))).all() and (true_objs == o).all()
    assert len(rows) > 0 and not (objs == o[rows]).any()
    np.testing.assert_array_equal(ranks, float64_ranks(p, queries, index, "realistic", None))

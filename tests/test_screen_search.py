"""Searches for each float32 screen's worst case against its written error bound.

Every rank rests on three bounds: ``_distance_bound`` for TransE's kernel,
``_dot_bound`` for the float32 GEMM of RESCAL, TuckER and ComplEx, and
``_distance_bound`` plus ``_rotate_lhs``'s offsets for RotatE's GEMM per
complex dimension.  A bound that is too small would count a candidate near
the true object above or below it without a float64 settle: a wrong rank,
with no signal.  So each test steers Hypothesis with ``hypothesis.target``
toward the largest |s32 - s64| / δ (for RotatE, the signed error against
each side of its bracket), over query rows and entities drawn as the
bounds' worst cases need them: exactly representable float32 values,
entities a few ulps from a query row, aligned signs, widths up to the
screens' limit (terms · u <= 0.05) and magnitudes from below float32's
underflow to just under ``_SCREEN_LIMIT``.  Each test asserts that every
float32 screen value is finite, fails above a ratio of 1, and prints the
highest ratio it found (``pytest -rP`` shows it).  The tests are seeded;
``pytest --hypothesis-profile=ci`` runs 2,000 examples of each.

s64 is the exact float64 score of ``_ObjectScorer.pair_scores``, a
sequential sum from 0 in column order, written here as one
``np.add.accumulate`` per pair, which rounds the same sums in the same
order.  Up to ``NARROW`` terms the screens run as the ranking runs them, and
both sums are checked against the column loops.  Wider rows, up to 838,860
terms, would take numpy calls per column, so TransE's float32 kernel is
summed the same way, and RotatE's operands and four-term products are
formed elementwise over all terms at once: its bound holds in any order of
those terms.
"""
import math

import numpy as np
from hypothesis import given, seed, settings, target
from hypothesis import strategies as st

import chainlens.models as models

from reference_models import exact_distance_scores, exact_dot_scores, exact_rotate_scores

#: the most terms a screen is trusted with: terms · u <= 0.05
LIMIT_TERMS = int(0.05 / models._U32)
#: up to this many terms, the screens run as the ranking runs them
NARROW = 256


@st.composite
def screen_case(draw, norm: str, pair: int = 1):
    """Query rows q (k, width) and entities E (n, width), float64, of ``terms`` terms of ``pair`` columns each,
    every row's ``norm`` ("l1" or "l2") under ``_SCREEN_LIMIT``."""
    terms = min(LIMIT_TERMS, int(2.0 ** draw(st.floats(0, math.log2(LIMIT_TERMS)))))  # log-uniform
    k, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, span = draw(st.floats(-155, 59)), draw(st.floats(0, 40))  # log2 magnitudes: past float32's underflow

    def rows(count):
        return np.exp2(rng.uniform(lo, min(lo + span, 59), size=(count, pair * terms)))

    q, E = rows(k), rows(n)
    signs = draw(st.sampled_from(["random", "same", "opposite"]))  # aligned signs line the roundings up
    if signs == "random":
        for a in (q, E):
            np.negative(a, out=a, where=rng.random(a.shape) < 0.5)
    elif signs == "opposite":
        E = -E
    ulps, ulp_type = draw(st.integers(0, 4)), draw(st.sampled_from([np.float32, np.float64]))
    for j in range(min(k, n) if ulps else 0):  # entities a few ulps from a query row: cancellation
        near = q[j].astype(ulp_type)
        toward = rng.choice(np.array([-np.inf, np.inf], dtype=ulp_type), size=near.shape)
        for _ in range(ulps):
            near = np.nextafter(near, toward)
        E[j] = near
    if draw(st.booleans()):  # exactly representable in float32: no cast error
        q, E = (a.astype(np.float32).astype(np.float64) for a in (q, E))
    near_limit = draw(st.booleans())
    for a in (q, E):
        size = np.abs(a).sum(axis=1) if norm == "l1" else np.sqrt(np.einsum("ij,ij->i", a, a))
        scale = (near_limit | (size >= models._SCREEN_LIMIT)) & (size > 0)
        a[scale] *= (models._SCREEN_LIMIT * (1 - 2.0 ** -20) / size[scale])[:, None]
    return q, E


def search(name: str, case, ratios) -> None:
    """Steer Hypothesis toward the largest of each ratio that ``ratios(q, E)`` gives for a drawn ``case``, fail
    when one is above 1, and print the highest of each found."""
    worst = {}

    @seed(46)
    @settings(deadline=None)
    @given(case=case)
    def run(case):
        found = ratios(*case)
        for side, ratio in found.items():
            target(ratio, label=side)
            worst[side] = max(worst.get(side, 0.0), ratio)
        assert max(found.values()) <= 1, (found, case[0].shape)

    try:
        run()
    finally:
        print(f"{name}: highest ratio found " + ", ".join(f"{side} {value:.4g}" for side, value in worst.items()))


def test_transe_screen_error_search():
    """|s32 - s64| / δ <= 1 for TransE's float32 kernel, δ from ``_distance_bound``."""
    def ratios(q, E):
        terms = q.shape[1]
        q32, E32 = q.astype(np.float32), E.astype(np.float32)
        s32 = -np.add.accumulate(np.abs(q32[:, None] - E32[None]), axis=2)[..., -1]
        s64 = -np.add.accumulate(np.abs(q[:, None] - E[None]), axis=2)[..., -1]
        if terms <= NARROW:
            kernel = np.empty(s32.shape, dtype=np.float32)
            models._negated_distance_sums(q32, np.ascontiguousarray(E32.T), np.empty_like(kernel), kernel)
            np.testing.assert_array_equal(kernel, s32)
            np.testing.assert_array_equal(exact_distance_scores(q, E), s64)
        assert np.isfinite(s32).all()
        delta = models._distance_bound(np.abs(q).sum(axis=1) + np.abs(E).sum(axis=1).max(), terms, False)
        return {"|s32 - s64| / δ": float((np.abs(s32 - s64) / delta[:, None]).max())}

    search("TransE", screen_case("l1"), ratios)


def test_gemm_screen_error_search():
    """|s32 - s64| / δ <= 1 for the float32 GEMM of RESCAL, TuckER and ComplEx, δ from ``_dot_bound``."""
    def ratios(q, E):
        terms = q.shape[1]
        s32 = np.matmul(q.astype(np.float32), np.ascontiguousarray(E.T, dtype=np.float32))
        s64 = np.add.accumulate(q[:, None] * E[None], axis=2)[..., -1]
        if terms <= NARROW:
            np.testing.assert_array_equal(exact_dot_scores(q, E), s64)
        assert np.isfinite(s32).all()
        delta = models._dot_bound(np.sqrt(np.einsum("ij,ij->i", q, q)),
                                  math.sqrt(np.max(np.einsum("ij,ij->i", E, E))), terms)
        return {"|s32 - s64| / δ": float((np.abs(s32 - s64) / delta[:, None]).max())}

    search("GEMM", screen_case("l2"), ratios)


def test_rotate_screen_error_search():
    """RotatE's screen lies at most δ above s64, (s32 - s64) / δ <= 1, and at most δ plus its offsets
    (1 + γ_n)(1 + u) Σ_j √(2 c_ij) below, (s64 - s32) / (δ + offsets) <= 1."""
    def ratios(q, E):
        k, n, terms = len(q), len(E), q.shape[1] // 2
        # the right-hand operands re ê, im ê, 1 and |ê|² (rounded from float64) per term, and each term's
        # largest |ê|², as _rotate_operands writes them in a loop over the terms
        e32 = E.astype(np.float32).reshape(n, terms, 2).transpose(1, 2, 0)  # (terms, 2, n)
        e_sq = np.square(e32[:, 0], dtype=np.float64) + np.square(e32[:, 1], dtype=np.float64)
        A, Z, c = np.ones((terms, k, 4), dtype=np.float32), np.empty((k, terms)), np.empty((k, terms))
        offsets = models._rotate_lhs(q.astype(np.float32), e_sq.max(axis=1), A, Z, c)
        if terms <= NARROW:
            B, largest = models._rotate_operands(E)
            np.testing.assert_array_equal(B[:, :2], e32)
            np.testing.assert_array_equal(B[:, 3], e_sq.astype(np.float32))
            np.testing.assert_array_equal(largest, e_sq.max(axis=1))
            s32 = np.empty((k, n), dtype=np.float32)
            models._rotate_screen(A, B, np.empty_like(s32), s32)
        else:  # each term's four products, summed in float32 in one order of the many its bound covers
            x = A[:, :, None, 0] * e32[:, None, 0] + A[:, :, None, 1] * e32[:, None, 1]
            x += A[:, :, None, 2]
            x += e_sq.astype(np.float32)[:, None]
            s32 = -np.add.accumulate(np.sqrt(x), axis=0)[-1]  # (terms, k, n) summed over the terms
        d = q[:, None] - E[None]
        np.multiply(d, d, out=d)
        s64 = -np.add.accumulate(np.sqrt(d[..., 0::2] + d[..., 1::2]), axis=2)[..., -1]
        if terms <= NARROW:
            np.testing.assert_array_equal(exact_rotate_scores(q, E), s64)
        assert np.isfinite(s32).all()
        delta = models._distance_bound(np.abs(q).sum(axis=1) + np.abs(E).sum(axis=1).max(), terms, True)
        error = s64 - s32  # the screen lies below the exact score where this is positive
        return {"above": float((-error / delta[:, None]).max()),
                "below": float((error / (delta + offsets)[:, None]).max())}

    search("RotatE", screen_case("l1", pair=2), ratios)

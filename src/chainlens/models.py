"""Embedding models for link prediction: scoring and analytic gradients.

Five model families over dense entity ids.  All scores follow a single
higher-is-better convention (distance-based models are negated):

* RESCAL      s(e_s, r, e_o) = e_s^T M_r e_o
* ComplEx     s = Re(sum_k e_s[k] * w_r[k] * conj(e_o[k]))
* TuckER      s = sum_{abc} W[a,b,c] e_s[a] w_r[b] e_o[c]
* TransE      s = -|| e_s + w_r - e_o ||_1
* RotatE      s = -sum_k | e_s[k] * exp(i theta_r[k]) - e_o[k] |

RESCAL and TuckER share one bilinear path, s = e_s^T M_r e_o: RESCAL stores
M_r, TuckER builds M_r = W x_2 w_r (Balazevic et al. 2019).  Batches are
grouped by relation, so scores and gradients are per-relation matrix products
(GEMMs).  A training batch's positives and negatives take one forward pass,
grouped once, so each M_r is built once per batch.  With the rows S, O of
one relation, S M_r gives the scores and the object gradients, O M_r^T the
subject gradients, and G_r = S^T O, the rows weighted by their loss
coefficients, is RESCAL's relation gradient, from which TuckER's relation
and core gradients are one contraction each with W and w.

Each score is written once per shape.  Per triple, the training step's
forward passes are the formulas, and ``score_batch`` runs them on a
workspace of its own.  The step (``batch_loss_and_gradients``) writes into
``_BatchWorkspace``, built once per run: the gradient blocks, cleared each
batch, and every gathered row, product, score, loss and scatter index,
written with ``out=`` into the batch's first rows, so that no array of a
batch's size is mapped and faulted in afresh on every batch.  TransE,
ComplEx and RotatE score each half of the batch on its own and keep its
forward results for its gradient.  Every per-row scatter goes through
``_scatter_rows``: one ``np.add.at`` on a flat view of the block, with the
bits of the row-wise ``np.add.at`` in a fraction of its time.  Losses, and
the elementwise models' gradients, are bit-identical to the allocating step
in ``tests/reference_models.py``; RESCAL's and TuckER's gradients agree
with it within 1e-12.

Per block, ``score_objects`` scores k queries against all N entities as a
(k, N) block: a GEMM per relation for RESCAL and TuckER and one real GEMM on
the float64 views for ComplEx (``_ObjectScorer``), a loop over the
dimension on (k, N) buffers for TransE and RotatE (``_DistanceScorer``).
``evaluation.rank_queries`` ranks every model through the scorer that
``_block_scorer`` picks, shared by its threads: ``workspace(k)`` gives a
thread its buffers for blocks of up to k queries, and ``bracketed(s, r, o,
workspace)`` returns a block's ``(scores, lower, upper, true_score,
exact)``: its scores, per row bounds around the true object's exact score,
and ``exact(rows, objects)``, the exact scores of chosen pairs.
``_ObjectScorer`` hands over its float64 block with both bounds at the true
score.  ``_ScreenedScorer`` (TransE and RotatE) hands over a float32 screen
with bounds rounded outward, and exact scores equal to ``score_objects``'
bit for bit.  TransE's screen is the distance kernel in float32, within δ
of the float64 kernel (``_distance_bound``): bounds t -/+ δ.  RotatE's
takes one float32 GEMM per complex dimension, |q - e|² + c = |q|² + c +
|e|² - 2 Re(q conj(e)) for a whole (k, N) block, then a square root and a
subtraction: three passes over the block where the distance kernel makes
seven.  Its offset c covers the GEMM's rounding, so no square is negative
and its scores lie at most δ above the float64 kernel's but up to δ +
sum_j sqrt(2 c_j) below them (``_rotate_lhs``): bounds t - that and t + δ.
A block whose float32 pass cannot be trusted comes as ``score_objects``'
block.  Every gather clips ids (numpy's "raise" mode buffers a copy of
``out``), so ``_check_ids`` checks them first.  The BLAS thread count is
left as the environment sets it: the GEMM models and RotatE's screen use it.

Complex-valued blocks (ComplEx and RotatE entities, ComplEx relations) are
stored as complex128 arrays; their "gradients" use the real-pair convention
g = d/dRe + i * d/dIm, so viewing parameters and gradients as float64 makes
every update an ordinary elementwise real update.

Hinge subgradient choices: the margin loss is flat (all-zero gradients) when
margin + neg - pos <= 0; TransE uses sign() with sign(0) = 0; RotatE treats
a zero-modulus component as gradient 0.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


class CheckpointError(Exception):
    """A checkpoint whose header or parameter blocks cannot describe a model."""


class ModelKind(Enum):
    RESCAL = "RESCAL"
    COMPLEX = "ComplEx"
    TUCKER = "TuckER"
    TRANSE = "TransE"
    ROTATE = "RotatE"

    @classmethod
    def from_name(cls, name: str) -> "ModelKind":
        for kind in cls:
            if kind.value.lower() == name.lower():
                return kind
        valid = ", ".join(k.value for k in cls)
        raise ValueError(f"unknown model {name!r} (valid: {valid})")


@dataclass
class ModelParams:
    """Learned parameter blocks for one model.

    ``blocks`` maps block names ("entity", "relation", and "core" for
    TuckER) to numpy arrays.  TransE entity rows keep unit L2 norm and
    RotatE relation phases stay in [0, 2*pi) after every optimizer step.
    """

    kind: ModelKind
    dim: int
    num_entities: int
    num_relations: int
    seed: int
    blocks: dict[str, np.ndarray]
    #: sha256 of the training split's ordered (label, type) list; None if unknown
    vocabulary_sha256: str | None = None

    def copy(self) -> "ModelParams":
        return ModelParams(
            kind=self.kind,
            dim=self.dim,
            num_entities=self.num_entities,
            num_relations=self.num_relations,
            seed=self.seed,
            blocks={k: v.copy() for k, v in self.blocks.items()},
            vocabulary_sha256=self.vocabulary_sha256,
        )

    def all_finite(self) -> bool:
        return all(np.isfinite(v).all() for v in self.blocks.values())


def _glorot(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in, fan_out = shape[0], int(np.prod(shape[1:]))
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def _glorot_complex(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return _glorot(rng, shape) + 1j * _glorot(rng, shape)


def _block_specs(kind: ModelKind, n: int, r: int, d: int) -> dict[str, tuple]:
    """(shape, dtype) of each block of a ``kind`` model (n entities, r relations, dim d), in initialization order."""
    real, cplx = np.dtype(np.float64), np.dtype(np.complex128)
    specs = {
        "entity": ((n, d), cplx if kind in (ModelKind.COMPLEX, ModelKind.ROTATE) else real),
        "relation": ((r, d, d) if kind is ModelKind.RESCAL else (r, d), cplx if kind is ModelKind.COMPLEX else real),
    }
    if kind is ModelKind.TUCKER:
        specs["core"] = ((d, d, d), real)
    return specs


def init_params(kind: ModelKind, num_entities: int, num_relations: int, config) -> ModelParams:
    """Deterministically initialize parameter blocks for ``config.seed``.

    Real entries are uniform in [-a, a] with a = sqrt(6 / (fan_in + fan_out))
    per block; RotatE phases are uniform in [0, 2*pi); TransE entity rows are
    normalized to unit L2 norm.
    """
    if num_entities <= 0 or num_relations <= 0:
        raise ValueError("entity and relation counts must be positive")
    rng = np.random.default_rng(config.seed)
    blocks = {name: rng.uniform(0.0, TWO_PI, size=shape) if kind is ModelKind.ROTATE and name == "relation"
              else (_glorot_complex if dtype == np.complex128 else _glorot)(rng, shape)
              for name, (shape, dtype) in _block_specs(kind, num_entities, num_relations, config.dim).items()}
    params = ModelParams(kind=kind, dim=config.dim, num_entities=num_entities, num_relations=num_relations,
                         seed=config.seed, blocks=blocks)
    apply_constraints(params)
    return params


def apply_constraints(params: ModelParams, scratch: np.ndarray | None = None) -> None:
    """Project parameters back onto their constraint sets, in place.

    TransE's entity rows are scaled to unit L2 norm.  Their squares go into
    ``scratch``, an array of the entity block's shape (allocated if none is
    given), and are summed and rooted as ``np.linalg.norm`` does, so the
    norms have its bits without its two entity-sized temporaries.
    """
    if params.kind is ModelKind.TRANSE:
        ent = params.blocks["entity"]
        squares = np.multiply(ent, ent, out=scratch)
        norms = np.sqrt(np.add.reduce(squares, axis=1))
        ent /= norms[:, None]
    elif params.kind is ModelKind.ROTATE:
        rel = params.blocks["relation"]
        np.mod(rel, TWO_PI, out=rel)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

# Models scored as e_s^T M_r e_o; RESCAL is TuckER with M_r stored directly.
_BILINEAR = (ModelKind.RESCAL, ModelKind.TUCKER)


def _relation_matrices(params: ModelParams, rels: np.ndarray) -> np.ndarray:
    """The (k, d, d) bilinear matrices M_r of relations ``rels``.

    RESCAL stores them; TuckER's are M_r = W x_2 w_r, built by one (k x d) .
    (d x d) product per slice W[a] of the core in its stored layout, so no
    transposed copy of W is made.  The result is a strided (k, d, d) view.
    """
    R = params.blocks["relation"]
    if params.kind is ModelKind.RESCAL:
        return R[rels]
    return np.matmul(R[rels], params.blocks["core"]).transpose(1, 0, 2)


def _relation_groups(r: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Distinct relation ids of ``r`` and, for each, the rows that carry it."""
    order = np.argsort(r, kind="stable")
    rels, starts = np.unique(r[order], return_index=True)
    return rels, np.split(order, starts[1:])


def _check_ids(params: ModelParams, entities: np.ndarray, relations: np.ndarray) -> None:
    """IndexError unless every id of ``entities`` names an entity and every id of ``relations`` a relation."""
    for name, ids, bound in (("entity", entities, params.num_entities), ("relation", relations, params.num_relations)):
        if ids.size and not (0 <= ids.min() and ids.max() < bound):
            raise IndexError(f"an id lies outside {params.num_entities} entities and {params.num_relations} "
                             f"relations: {name} ids {ids.min()}..{ids.max()}")


def score_batch(params: ModelParams, triples: np.ndarray) -> np.ndarray:
    """Scores for an (B, 3) array of (subject, relation, object) id triples, from the training step's
    forward pass.  ``IndexError`` for an id outside the tables."""
    triples = np.atleast_2d(np.asarray(triples, dtype=np.int64))
    _check_ids(params, triples[:, ::2], triples[:, 1])
    ws, scores = _BatchWorkspace(params, len(triples), backward=False), np.empty(len(triples))
    if params.kind in _BILINEAR:
        _bilinear_forward(params, triples, ws, scores)
    else:
        _start_halves(params, ws)
        _HALVES[params.kind][0](params, triples, ws.buf["pos"], ws, scores)
    return scores


# Models scored as a distance, screened in float32 for ranking.
_DISTANCE = (ModelKind.TRANSE, ModelKind.ROTATE)


def score_objects(params: ModelParams, s, r) -> np.ndarray:
    """Scores of every entity as candidate object of (s, r, ?).

    ``s`` and ``r`` are ids or id arrays of k queries, broadcast against each
    other (a ``ValueError`` if their lengths cannot be).  Two scalar ids give
    the (N,) score vector, otherwise a (k, N) block with one row per query.
    Each row is computed the same way whatever k is, apart from the summation
    order BLAS picks for the bilinear models and ComplEx.
    """
    scalar = np.ndim(s) == 0 and np.ndim(r) == 0
    s, r = np.broadcast_arrays(np.atleast_1d(np.asarray(s, dtype=np.int64)),
                               np.atleast_1d(np.asarray(r, dtype=np.int64)))
    _check_ids(params, s, r)
    if params.kind in _DISTANCE:
        out = _DistanceScorer(params).exact(s, r)
    else:
        scorer = _ObjectScorer(params, np.unique(r))
        out = scorer(s, r, scorer.workspace(len(s)))
    return out[0] if scalar else out


def _transposed(a: np.ndarray, dtype) -> np.ndarray:
    """A ``dtype`` copy of a.T.  Copied 64 rows at a time, it took a third of
    the time of a plain transposed copy (6,940 x 128 float64, 2-vCPU Xeon)."""
    a_t = np.empty(a.shape[::-1], dtype=dtype)
    for start in range(0, len(a), 64):
        a_t[:, start:start + 64] = a[start:start + 64].T
    return a_t


def _query_rows(kind: ModelKind, E: np.ndarray, R: np.ndarray, s: np.ndarray, r: np.ndarray, q: np.ndarray,
                w: np.ndarray) -> None:
    """Write the query rows of (s[i], r[i], ?) into q: E[s] + R[r] for TransE, E[s] * R[r] for ComplEx and for
    RotatE, whose R holds the rotations exp(i theta).  w takes R[r].  The gathers clip ids."""
    np.take(E, s, axis=0, out=q, mode="clip")  # the "raise" mode would buffer a copy of q
    np.take(R, r, axis=0, out=w, mode="clip")
    if kind is ModelKind.TRANSE:
        q += w
    else:
        q *= w


class _ObjectScorer:
    """Scores RESCAL, TuckER and ComplEx queries (s, r, ?) against all N entities, as (k, N) blocks.

    Prepared once: M_r of each relation of ``rels`` (built one relation at a
    time, as for a block of one relation) and ComplEx's float64 view of E.
    Threads may share a scorer, each scoring into a :meth:`workspace` of its own.
    """

    def __init__(self, params: ModelParams, rels: np.ndarray) -> None:
        self.kind, self.E, self.R = params.kind, params.blocks["entity"], params.blocks["relation"]
        if self.kind in _BILINEAR:
            self.M = {rel: _relation_matrices(params, np.array([rel]))[0] for rel in rels.tolist()}
        else:
            self.E64 = self.E.view(np.float64)

    def workspace(self, k: int) -> dict[str, np.ndarray]:
        """Buffers for blocks of up to k queries: the (k, N) ``scores``, the (k, d) query rows ``q`` and the
        relation rows ``w`` (q M_r for RESCAL and TuckER)."""
        n, d = self.E.shape
        return {"scores": np.empty((k, n)), "q": np.empty((k, d), dtype=self.E.dtype),
                "w": np.empty((k, d), dtype=self.E.dtype)}

    def __call__(self, s: np.ndarray, r: np.ndarray, ws: dict) -> np.ndarray:
        """The (k, N) scores of the queries (s[i], r[i], ?), written into the
        first k rows of the workspace's score buffer, which is returned.  The
        gathers clip ids, so callers check them first."""
        k = len(s)
        out, q, w = ws["scores"][:k], ws["q"][:k], ws["w"][:k]
        E = self.E
        if self.kind in _BILINEAR:
            np.take(E, s, axis=0, out=q, mode="clip")  # the "raise" mode would buffer a copy of q
            rels, groups = _relation_groups(r)
            for rel, rows in zip(rels.tolist(), groups):
                if len(rows) == len(s):
                    np.matmul(np.matmul(q, self.M[rel], out=w), E.T, out=out)
                else:
                    out[rows] = (q[rows] @ self.M[rel]) @ E.T
            return out
        _query_rows(self.kind, E, self.R, s, r, q, w)
        # Re(sum_k q_k conj(e_k)) is the real dot product of the (re, im) pairs
        return np.matmul(q.view(np.float64), self.E64.T, out=out)

    def bracketed(self, s: np.ndarray, r: np.ndarray, o: np.ndarray, ws: dict) -> tuple:
        """The block of the queries (s[i], r[i], o[i]), its exact scores bracketed (see :func:`_exact_bracketed`)."""
        return _exact_bracketed(self(s, r, ws), o)


def _exact_bracketed(scores: np.ndarray, o: np.ndarray) -> tuple:
    """Bracketed float64 ``scores`` that are exact: both bounds at each row's true score t."""
    t = scores[np.arange(len(scores)), o]
    return scores, t, t, t, lambda i, j: scores[i, j]


def _negated_distance_sums(q: np.ndarray, e_t: np.ndarray, bufs: list[np.ndarray], out: np.ndarray) -> None:
    """Write -sum_d |q[i, d] - E[j, d]| for every query row i and entity j into ``out`` (k, N).

    ``e_t`` is E transposed.  With two ``bufs`` (RotatE), q and E are real
    views with (re, im) column pairs, and each pair contributes its modulus
    sqrt(re^2 + im^2).  The loop runs over the dimension on (k, N) buffers,
    so no (k, N, d) temporary is formed, in the same order whatever k is.
    """
    out.fill(0.0)
    buf = bufs[0]
    if len(bufs) == 2:
        buf_im = bufs[1]
        for d in range(0, e_t.shape[0], 2):
            np.subtract(q[:, d, None], e_t[d], out=buf)
            np.multiply(buf, buf, out=buf)
            np.subtract(q[:, d + 1, None], e_t[d + 1], out=buf_im)
            np.multiply(buf_im, buf_im, out=buf_im)
            buf += buf_im
            np.sqrt(buf, out=buf)
            out -= buf
    else:
        for d in range(e_t.shape[0]):
            np.subtract(q[:, d, None], e_t[d], out=buf)
            np.abs(buf, out=buf)
            out -= buf


class _DistanceScorer:
    """TransE and RotatE queries (s, r, ?) scored in float64 against all N entities: :meth:`exact`, the
    block of ``score_objects`` and of the float32 screen's fallback.  RotatE's R holds exp(i theta)."""

    def __init__(self, params: ModelParams) -> None:
        self.kind, self.E = params.kind, params.blocks["entity"]
        self.rotate = params.kind is ModelKind.ROTATE
        self.R = np.exp(1j * params.blocks["relation"]) if self.rotate else params.blocks["relation"]
        self.E64 = self.E.view(np.float64)

    def exact(self, s: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The (k, N) scores of the queries (s[i], r[i], ?), in buffers allocated per call.  The gathers clip ids."""
        k, (n, d) = len(s), self.E.shape
        q, w = np.empty((k, d), dtype=self.E.dtype), np.empty((k, d), dtype=self.R.dtype)
        _query_rows(self.kind, self.E, self.R, s, r, q, w)
        out, bufs = np.empty((k, n)), [np.empty((k, n)) for _ in range(1 + self.rotate)]
        _negated_distance_sums(q.view(np.float64), _transposed(self.E64, np.float64), bufs, out)
        return out


# float32's unit roundoff, and its least normal number: an operation whose
# result lies below that in magnitude is off by at most that much, under
# gradual underflow and flush-to-zero alike.
_U32 = 2.0 ** -24
_TINY32 = 2.0 ** -126
# Query rows and entities of an L1 norm below this are screened in float32:
# no cast, square or sum of theirs can overflow float32.
_SCREEN_LIMIT = 2.0 ** 60


def _distance_bound(l1: np.ndarray, terms: int, rotate: bool) -> np.ndarray:
    """A bound δ on |s32 - s64| for a query row and any entity whose L1 norms sum to at most ``l1``.

    s64 is :func:`_negated_distance_sums`' float64 score of the pair and s32
    that kernel's score of the pair cast to float32, computed in float32;
    ``terms`` is the number of terms the kernel sums (the float columns for
    TransE, the (re, im) pairs for RotatE).  RotatE's screen is a GEMM per
    pair of columns instead, which :func:`_rotate_lhs` bounds from the
    per-modulus errors derived here.  Both scores are compared with the
    exact score s of the float64 values, in the standard model
    fl(x op y) = (x op y)(1 + e) + t, |e| <= u, |t| <= ``_TINY32``, which
    covers underflow (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., SIAM 2002, §2.1; γ_n = nu / (1 - nu), §3.1):

    * TransE: the casts and the subtraction put each |q_d - e_d| off by at
      most (2u + u²)(|q_d| + |e_d|) + (3 + 2u)t, and the sequential sum of
      the n terms adds γ_n times their sum and n t (1 + γ_n) (§4.2).  So
      |s32 - s| <= (γ_n + 3u) l1 + 5 (1 + γ_n) n t.
    * RotatE: the two differences as above; the squares, their sum and
      the square root add 2u + u² relatively and, from squares that
      underflow, 2 (1 + u) sqrt(t) (the square root is 1/2-Hölder).  Each
      modulus is off by at most 5u times its four |q| + |e| plus 3 sqrt(t),
      and |s32 - s| <= (γ_n + 6u) l1 + 4 (1 + γ_n) n sqrt(t).

    Both need γ_n <= 0.1 and no overflow (see ``_SCREEN_LIMIT``).  The same
    bounds with float64's u and t, which are smaller, hold for |s64 - s|,
    so δ is twice the float32 bound.  The float64 rounding of l1 and δ
    (relative, under 1e-13) is far inside that factor of two: float64's
    bound is about 2^-29 of float32's.
    """
    gamma = terms * _U32 / (1 - terms * _U32)
    if rotate:
        return 2 * ((gamma + 6 * _U32) * l1 + 4 * (1 + gamma) * terms * math.sqrt(_TINY32))
    return 2 * ((gamma + 3 * _U32) * l1 + 5 * (1 + gamma) * terms * _TINY32)


def _rotate_operands(E64: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RotatE's right-hand screen operands, for entities E64 with (re, im) column pairs.

    Returns B, (terms, 4, N) float32, whose B[j] holds the rows re ê_j, im
    ê_j, 1 and |ê_j|² of every entity, ê being E rounded to float32, and
    each dimension's largest |ê_j|² in float64.  |ê_j|² is re² + im² in
    float64, where the squares of float32 values are exact, rounded to
    float32 in B.  Entities are copied 64 at a time, as in :func:`_transposed`.
    """
    n, width = E64.shape
    B = np.empty((width // 2, 4, n), dtype=np.float32)
    for start in range(0, n, 64):
        B[:, :2, start:start + 64] = E64[start:start + 64].reshape(-1, width // 2, 2).transpose(1, 2, 0)
    B[:, 2] = 1.0
    e_sq = np.empty(width // 2)
    for j, b in enumerate(B):
        squares = np.square(b[:2], dtype=np.float64)
        np.add(squares[0], squares[1], out=squares[0])
        b[3] = squares[0]
        e_sq[j] = np.max(squares[0], initial=0.0)
    return B, e_sq


def _rotate_lhs(q32: np.ndarray, e_sq: np.ndarray, A: np.ndarray, Z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """RotatE's left-hand screen operands for float32 query rows q32 ((re, im) column pairs), and the bound they add.

    Writes A_j = [-2 re q̂_j, -2 im q̂_j, |q̂_j|² + c_ij, 1] for each query
    row i into ``A`` (terms, k, 4), whose last column is 1 already, |q̂_j|²
    + c_ij into ``Z`` and the offsets c_ij into ``c`` (both (k, terms)
    float64), then √(2 c_ij) into ``c``.  ``e_sq`` holds each dimension's
    largest |ê_j|² (:func:`_rotate_operands`).  Returns each row's (1 +
    γ_n)(1 + u) Σ_j √(2 c_ij): how much further than δ (see
    :func:`_distance_bound`) below the float64 kernel's scores the screen's
    may lie.

    The screen writes x̃ = fl(A_j · B_j), a float32 dot product of four
    terms, for every entity, then fl(√x̃), and sums those as the distance
    kernel does.  With a = q̂_j and b = ê_j, the float32 query and entity
    values, in the model of :func:`_distance_bound` (u, t, γ_n), u' being
    float64's unit roundoff and m = e_sq_j (1 + u') >= |b|²:

    * The exact dot product is α + β - 2 Re(a conj(b)) = |a - b|² + c +
      (α - |a|² - c) + (β - |b|²), where α = fl32(fl64(|a|²) + c) is off
      by at most (u + 3u')(|a|² + c) + t and β = fl32(fl64(|b|²)) by at
      most (u + 2u') m + t.
    * In any order, fused multiply-adds or not, the float32 dot product is
      off by at most γ_4 times the sum of its |products| (Higham §3.1),
      which is at most |a|² + |b|² + α + β since 2 |re a re b| + 2 |im a
      im b| <= 2 |a| |b|, plus 8 t for its seven operations' underflow.

    Together that is at most 9.001 u (|a|² + m) + 5.001 u c + 10.001 t,
    less than c_ij = 10 u (fl64(|a|²) + e_sq_j) + 16 t, rounded in float64.
    So |a - b|² <= x̃ <= |a - b|² + 2c: no x̃ is negative, and √x̃ lies in
    [|a - b|, |a - b| + √(2c)].  The casts put |a - b| within u times the
    four |q| + |e| plus 4 t of the exact modulus |q_j - e_j|, and the root
    adds u relatively, so each float32 term lies within the distance
    kernel's per-modulus error (5u times the four |q| + |e| plus 3 √t) of
    the exact modulus, but for up to (1 + u) √(2c) more upward.  The
    sequential sum scales those extras by at most 1 + γ_n.  The screen's
    scores are then at most δ above the float64 kernel's, and at most δ +
    (1 + γ_n)(1 + u) Σ_j √(2 c_ij) below them.  Under ``_SCREEN_LIMIT``,
    |a|², |b|², c and every partial sum stay below 2^125: nothing
    overflows.  The float64 rounding of that sum, under 1e-13 relatively,
    is far inside δ's factor of two.
    """
    k, terms = c.shape
    pairs = q32.reshape(k, terms, 2)
    np.multiply(pairs.transpose(1, 0, 2), -2, out=A[:, :, :2])  # exact
    np.square(pairs[:, :, 0], out=Z, dtype=np.float64)  # the squares of float32 values are exact in float64
    Z += np.square(pairs[:, :, 1], out=c, dtype=np.float64)
    np.add(Z, e_sq, out=c)
    c *= 10 * _U32
    c += 16 * _TINY32
    Z += c
    np.copyto(A[:, :, 2], Z.T, casting="same_kind")
    c *= 2
    gamma = terms * _U32 / (1 - terms * _U32)
    return (1 + gamma) * (1 + _U32) * np.sqrt(c, out=c).sum(axis=1)


def _rotate_screen(A: np.ndarray, B: np.ndarray, buf: np.ndarray, out: np.ndarray) -> None:
    """Write RotatE's float32 screen, -sum_j fl(√fl(A_j · B_j)), into ``out`` (k, N).

    Each dimension takes one float32 GEMM, (k, 4) by (4, N), into ``buf``
    (see :func:`_rotate_lhs`), its square root and a subtraction: three
    passes over the (k, N) buffers, against seven in
    :func:`_negated_distance_sums`.
    """
    out.fill(0.0)
    for a, b in zip(A, B):
        np.sqrt(np.matmul(a, b, out=buf), out=buf)
        out -= buf


def _outward32(x: np.ndarray, toward: float) -> np.ndarray:
    """float64 ``x``, a rounded sum, moved one float64 step toward ``toward``
    (+inf or -inf) and rounded to float32 in that direction: past the exact sum."""
    x = np.nextafter(x, toward)
    x32 = x.astype(np.float32)
    short = x32 < x if toward > 0 else x32 > x
    return np.where(short, np.nextafter(x32, np.float32(toward)), x32)


class _ScreenedScorer(_DistanceScorer):
    """TransE and RotatE query blocks scored in float32, and single (query, entity) pairs in float64.

    :meth:`screen` scores a block in float32 from float32 copies of the
    exact query rows and of the entities, held in float32 only: TransE with
    :func:`_negated_distance_sums` on E transposed (``E_t``), RotatE with
    one GEMM per complex dimension on the operands ``B`` of
    :func:`_rotate_operands`.  It bounds how far below and above the
    float64 kernel's scores each row's may lie (:func:`_distance_bound`,
    and for RotatE :func:`_rotate_lhs`'s offsets); :meth:`pair_scores`
    gives the float64 kernel's scores of chosen pairs.  Threads may share a
    scorer, each with a :meth:`workspace` of its own.
    """

    #: (query, entity) pairs that pair_scores scores at once.  RotatE settles about 60 pairs per query; on
    #: the 10x init checkpoint, 512 ranked its queries 5-10% faster than 128 (two workers, 2-vCPU Xeon).
    PAIR_ROWS = 512

    def __init__(self, params: ModelParams) -> None:
        super().__init__(params)
        if self.rotate:
            self.B, self.e_sq = _rotate_operands(self.E64)
        else:
            self.E_t = _transposed(self.E64, np.float32)
        self.terms = self.E64.shape[1] // 2 if self.rotate else self.E64.shape[1]
        # np.max, unlike max(), keeps a NaN
        self.e_l1 = float(np.max([np.abs(self.E64[i:i + 256]).sum(axis=1).max()
                                  for i in range(0, len(self.E64), 256)], initial=0.0))
        self.screenable = self.terms * _U32 <= 0.05 and self.e_l1 < _SCREEN_LIMIT

    def workspace(self, k: int) -> dict[str, np.ndarray]:
        """Buffers for blocks of up to k queries: the (k, d) query rows ``q`` and relation rows ``w``, the
        float32 query rows ``q32``, the float32 (k, N) scores and kernel buffer ``planes32``, RotatE's
        left-hand operands ``A`` and its (k, terms) ``Z`` and ``c`` (:func:`_rotate_lhs`), and the ``pairs``
        that :meth:`pair_scores` settles at once."""
        n, width = self.E64.shape
        ws = {
            "q": np.empty((k, self.E.shape[1]), dtype=self.E.dtype),
            "w": np.empty((k, self.E.shape[1]), dtype=self.R.dtype),
            "q32": np.empty((k, width), dtype=np.float32),
            # zeroed: a GEMM or GEMV that scales its output by 0 first would keep a NaN found there
            "planes32": np.zeros((2, k, n), dtype=np.float32),
            "pairs": np.empty((2, self.PAIR_ROWS, width)),
        }
        if self.rotate:
            ws |= {"A": np.ones((self.terms, k, 4), dtype=np.float32), "Z": np.empty((k, self.terms)),
                   "c": np.empty((k, self.terms))}
        return ws

    def screen(self, s: np.ndarray, r: np.ndarray, ws: dict) -> tuple[np.ndarray, np.ndarray | None,
                                                                         np.ndarray | None, np.ndarray | None]:
        """The exact float64 query rows of (s[i], r[i], ?) as a real view, and,
        if the float32 pass can be trusted, its (k, N) scores and, per row, how
        far below and above the float64 kernel's scores they may lie, else
        None for those three.  It cannot when a query row's or an entity's L1
        norm is ``_SCREEN_LIMIT`` or more or not finite, or when a float32
        score is not finite.  The gathers clip ids."""
        k = len(s)
        q, w = ws["q"][:k], ws["w"][:k]
        _query_rows(self.kind, self.E, self.R, s, r, q, w)
        q = q.view(np.float64)
        q_l1 = np.abs(q, out=w.view(np.float64)).sum(axis=1)  # w is spent
        if not (self.screenable and q_l1.max() < _SCREEN_LIMIT):
            return q, None, None, None
        q32 = ws["q32"][:k]
        np.copyto(q32, q, casting="same_kind")
        out, buf = ws["planes32"][:, :k]
        delta = _distance_bound(q_l1 + self.e_l1, self.terms, self.rotate)
        if self.rotate:
            A = ws["A"][:, :k]
            below = delta + _rotate_lhs(q32, self.e_sq, A, ws["Z"][:k], ws["c"][:k])
            _rotate_screen(A, self.B, buf, out)
        else:
            below = delta
            _negated_distance_sums(q32, self.E_t, [buf], out)
        if not np.isfinite(out.min()):  # min keeps a NaN
            return q, None, None, None
        return q, out, below, delta

    def pair_scores(self, q: np.ndarray, rows: np.ndarray, objs: np.ndarray, ws: dict) -> np.ndarray:
        """The float64 scores of the pairs (query row q[rows[i]], entity objs[i]).

        Each equals its entry of :func:`_negated_distance_sums`' block bit for
        bit: the same operations on the same values, summed in the same order.
        """
        out = np.zeros(len(rows))
        diffs, entities = ws["pairs"]
        for start in range(0, len(rows), len(diffs)):
            m = min(len(diffs), len(rows) - start)
            diff, e = diffs[:m], entities[:m]
            np.take(q, rows[start:start + m], axis=0, out=diff, mode="clip")
            np.subtract(diff, np.take(self.E64, objs[start:start + m], axis=0, out=e, mode="clip"), out=diff)
            if self.rotate:
                np.multiply(diff, diff, out=diff)
                terms = np.add(diff[:, 0::2], diff[:, 1::2], out=e[:, :self.terms])
                np.sqrt(terms, out=terms)
            else:
                terms = np.abs(diff, out=diff)
            total = out[start:start + m]
            for column in terms.T:
                total -= column
        return out

    def bracketed(self, s: np.ndarray, r: np.ndarray, o: np.ndarray, ws: dict) -> tuple:
        """The block of the queries (s[i], r[i], o[i]): its float32 screen bracketed by t - below and t + above
        rounded outward (see :meth:`screen`), or, if the screen cannot be trusted, the :meth:`exact` block
        (see :func:`_exact_bracketed`)."""
        q, screen, below, above = self.screen(s, r, ws)
        if screen is None:
            return _exact_bracketed(self.exact(s, r), o)
        t = self.pair_scores(q, np.arange(len(s)), o, ws)
        return (screen, _outward32(t - below, -np.inf), _outward32(t + above, np.inf), t,
                lambda i, j: self.pair_scores(q, i, j, ws))


def _block_scorer(params: ModelParams, rels: np.ndarray) -> _ObjectScorer | _ScreenedScorer:
    """The scorer whose bracketed blocks rank ``params``' queries of the relations ``rels``."""
    return _ScreenedScorer(params) if params.kind in _DISTANCE else _ObjectScorer(params, rels)


# ---------------------------------------------------------------------------
# Negative sampling
# ---------------------------------------------------------------------------

def corrupt_batch(pos: np.ndarray, num_entities: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized negative sampling, one corrupted triple per positive."""
    if num_entities < 2:
        raise ValueError("negative sampling needs at least two entities")
    neg = pos.copy()
    b = len(neg)
    idx = np.arange(b)
    slot = np.where(rng.random(b) < 0.5, 0, 2)
    orig = neg[idx, slot]
    repl = rng.integers(0, num_entities - 1, size=b)
    repl = repl + (repl >= orig)
    neg[idx, slot] = repl
    return neg


# ---------------------------------------------------------------------------
# Analytic gradients
# ---------------------------------------------------------------------------

def _scatter_rows(g: np.ndarray, idx: np.ndarray, rows: np.ndarray, index: np.ndarray, columns: np.ndarray) -> None:
    """Add rows[i] into g[idx[i]] for every i in turn, as ``np.add.at(g, idx, rows)`` does.

    ``g`` is C-contiguous and ``rows`` has its dtype.  The scatter runs on
    flat views with index idx[i] * width + j for element j of row i: as
    complex128 when a row holds an even number of float64, since a complex
    addition is the two float64 additions of its parts, else as float64.
    Each float64 of ``g`` gets the same additions in the same order, so the
    result is bit-identical, and numpy's one-dimensional ``add.at`` is 3-4x
    faster than the row-wise one (512 rows of 64 into 685 x 64 on a 2-vCPU
    Xeon); the complex view halves the index, and took two thirds of the
    float64 one's time.  The flat index is written into ``index``, an int64
    buffer of at least len(idx) * width entries; ``columns`` is 0, 1, 2,
    ... for at least width entries.
    """
    dtype = np.complex128 if g.view(np.float64).shape[1] % 2 == 0 else np.float64
    flat = g.view(dtype).reshape(-1)
    width = flat.size // len(g)
    cols = index[:len(idx) * width].reshape(len(idx), width)
    np.multiply(idx[:, None], width, out=cols)
    cols += columns[:width]
    np.add.at(flat, cols.reshape(-1), np.ascontiguousarray(rows).view(dtype).reshape(-1))


def _workspace_specs(kind: ModelKind, r: int, d: int, rows: int,
                     backward: bool = True) -> dict[str, tuple | dict[str, tuple]]:
    """(shape, dtype) of each buffer of a step over up to ``rows`` pairs, the gradient blocks aside.

    The forward passes write these: RESCAL and TuckER hold [pos; neg]
    sorted by relation, the sorted rows' gathered subjects S and objects O,
    S M_r and the sorted scores, and TuckER the batch's relation rows and
    their M_r (stored as W x_2 w_r leaves it, relation second).  The other
    models keep a half's forward results (the dict ``pos``) and shared work
    buffers; RotatE also exp(i theta) of every relation.  With ``backward``
    (the step's), every model adds the scores (positives, then negatives),
    the losses and the active mask.  RESCAL and TuckER add [pos; neg] as
    given (``pairs``), the loss coefficients in both orders and, for
    TuckER, G per relation and the relation gradient rows.  The others add
    the other half's forward results (``neg``), the active rows of a
    partly active half (``act``) and of its triples, the flat scatter
    ``index`` and its ``columns``, and the backward passes' work buffers.
    """
    real, cplx, ids = np.dtype(np.float64), np.dtype(np.complex128), np.dtype(np.int64)
    step = {"scores": ((2 * rows,), real), "losses": ((rows,), real), "active": ((rows,), np.dtype(bool))}
    if kind in _BILINEAR:
        n = 2 * rows
        specs = {"sorted": ((n, 3), ids), "S": ((n, d), real), "O": ((n, d), real), "SM": ((n, d), real),
                 "sorted_scores": ((n,), real)}
        step |= {"pairs": ((n, 3), ids), "coeff": ((n,), real), "sorted_coeff": ((n,), real), "columns": ((d,), ids)}
        if kind is ModelKind.TUCKER:
            specs |= {"rel_rows": ((r, d), real), "M": ((d, r, d), real)}
            step |= {"G": ((r, d, d), real), "rel_grads": ((r, d), real)}
        return specs | step if backward else specs
    width = d if kind is ModelKind.TRANSE else 2 * d
    step |= {"index": ((rows * width,), ids), "columns": ((width,), ids), "act_triples": ((rows, 3), ids)}
    if kind is ModelKind.TRANSE:
        half, shared, shared_step = {"u": real}, {"t": real}, {"g": real}
    elif kind is ModelKind.COMPLEX:
        half, shared, shared_step = {"es": cplx, "w": cplx, "eo": cplx, "esw": cplx}, {"c": cplx, "conj_eo": cplx}, {}
    else:
        half, shared, shared_step = {"es": cplx, "rot": cplx, "u": cplx, "mod": real}, {"c": cplx}, {"nz": bool}
    specs = {name: ((rows, d), np.dtype(dtype)) for name, dtype in shared.items()}
    specs["pos"] = {buf: ((rows, d), dtype) for buf, dtype in half.items()}
    if kind is ModelKind.COMPLEX:
        specs["csum"] = ((rows,), cplx)
    elif kind is ModelKind.ROTATE:
        specs["rotations"] = ((r, d), cplx)
    if not backward:
        return specs
    step |= {name: specs["pos"] for name in ("neg", "act")}
    return specs | step | {name: ((rows, d), np.dtype(dtype)) for name, dtype in shared_step.items()}


class _BatchWorkspace:
    """The training step's buffers, for batches of up to ``rows`` (positive, negative) pairs.

    Built once per training run: ``grads`` holds the gradient blocks and
    ``buf`` the buffers of :func:`_workspace_specs`, by name (``buf["pos"]``,
    ``buf["neg"]`` and ``buf["act"]`` are dicts of a half's).  A step clears
    the gradient blocks and writes into the first rows of the buffers, so a
    shorter last batch reuses them.  RESCAL's and TuckER's scatter index is
    O's memory, spent by the time they scatter.  Without ``backward`` it
    holds only what the forward passes write, and no gradient blocks.
    """

    def __init__(self, params: ModelParams, rows: int, backward: bool = True) -> None:
        self.rows = rows
        self.grads = {name: np.zeros_like(arr) for name, arr in params.blocks.items()} if backward else {}
        specs = _workspace_specs(params.kind, params.num_relations, params.dim, rows, backward)
        self.buf = {name: {k: np.empty(*v) for k, v in spec.items()} if isinstance(spec, dict) else np.empty(*spec)
                    for name, spec in specs.items()}
        if backward:
            self.buf["columns"][:] = np.arange(len(self.buf["columns"]))
            if params.kind in _BILINEAR:
                self.buf["index"] = self.buf["O"].reshape(-1).view(np.int64)

    def scatter(self, block: str, idx: np.ndarray, rows: np.ndarray) -> None:
        """Add rows[i] into row idx[i] of gradient block ``block``, for every i in turn."""
        _scatter_rows(self.grads[block], idx, rows, self.buf["index"], self.buf["columns"])


def training_bytes(kind: ModelKind, num_entities: int, num_relations: int, dim: int, batch: int,
                   negatives: int) -> int:
    """Bytes that training a ``kind`` model holds at once, estimated without allocating.

    Seven copies of the parameter blocks (the parameters, Adam's m and v and
    its two scratch arrays, the gradients and the best checkpoint), the
    step's workspace for batch * negatives pairs, the batch's positive and
    negative id arrays.  The sizes are Python integers, so a model far too
    large for any machine is counted, not overflowed.
    """
    def nbytes(specs: dict) -> int:
        return sum(nbytes(spec) if isinstance(spec, dict) else math.prod(spec[0]) * np.dtype(spec[1]).itemsize
                   for spec in specs.values())

    rows, blocks = batch * negatives, _block_specs(kind, num_entities, num_relations, dim)
    workspace = nbytes(_workspace_specs(kind, num_relations, dim, rows))
    return 7 * nbytes(blocks) + workspace + 2 * rows * 3 * 8


def _hinge(margin: float, scores: np.ndarray, ws: _BatchWorkspace) -> tuple[np.ndarray, np.ndarray]:
    """The losses max(0, margin + neg - pos) of the pairs whose scores are [pos; neg], and their active mask."""
    n, b = len(scores) // 2, ws.buf
    losses = np.add(margin, scores[n:], out=b["losses"][:n])
    np.subtract(losses, scores[:n], out=losses)
    np.maximum(0.0, losses, out=losses)
    return losses, np.greater(losses, 0.0, out=b["active"][:n])


# The elementwise models' halves.  A forward pass writes the half's buffers
# and the scores of its triples; a backward pass adds coeff * (d score /
# d params) of the triples whose forward results the half holds.

def _transe_forward(params, triples, h, ws, scores) -> None:
    E, R = params.blocks["entity"], params.blocks["relation"]
    m, b = len(triples), ws.buf
    u, t = h["u"][:m], b["t"][:m]
    np.take(E, triples[:, 0], axis=0, out=u, mode="clip")
    u += np.take(R, triples[:, 1], axis=0, out=t, mode="clip")
    u -= np.take(E, triples[:, 2], axis=0, out=t, mode="clip")
    np.negative(np.sum(np.abs(u, out=t), axis=1, out=scores), out=scores)


def _transe_backward(params, triples, h, ws, coeff) -> None:
    m, b = len(triples), ws.buf
    sgn, g = np.sign(h["u"][:m], out=b["t"][:m]), b["g"][:m]
    np.multiply(-coeff, sgn, out=g)
    ws.scatter("entity", triples[:, 0], g)
    ws.scatter("relation", triples[:, 1], g)
    ws.scatter("entity", triples[:, 2], np.multiply(coeff, sgn, out=g))


def _complex_forward(params, triples, h, ws, scores) -> None:
    E, R = params.blocks["entity"], params.blocks["relation"]
    m, b = len(triples), ws.buf
    es, eo, esw = h["es"][:m], h["eo"][:m], h["esw"][:m]
    np.take(E, triples[:, 0], axis=0, out=es, mode="clip")
    np.multiply(es, np.take(R, triples[:, 1], axis=0, out=h["w"][:m], mode="clip"), out=esw)
    np.take(E, triples[:, 2], axis=0, out=eo, mode="clip")
    # conj(eo) has a buffer of its own: written over it, the product of a (1, 1) block took another
    # numpy loop, an ulp off the score formula's
    c = np.multiply(esw, np.conjugate(eo, out=b["conj_eo"][:m]), out=b["c"][:m])
    np.copyto(scores, np.sum(c, axis=1, out=b["csum"][:m]).real)


def _complex_backward(params, triples, h, ws, coeff) -> None:
    # every complex product is written apart from its operands (see _complex_forward): the spent conj(eo) and c
    # take turns, and the scatters read the one not being written
    m, b = len(triples), ws.buf
    c, x, es, w, eo = b["c"][:m], b["conj_eo"][:m], h["es"][:m], h["w"][:m], h["eo"][:m]
    np.multiply(coeff, np.multiply(np.conjugate(w, out=x), eo, out=c), out=x)
    ws.scatter("entity", triples[:, 0], x)
    np.multiply(coeff, np.multiply(np.conjugate(es, out=x), eo, out=c), out=x)
    ws.scatter("relation", triples[:, 1], x)
    ws.scatter("entity", triples[:, 2], np.multiply(coeff, h["esw"][:m], out=c))


def _rotate_forward(params, triples, h, ws, scores) -> None:
    E = params.blocks["entity"]
    m, b = len(triples), ws.buf
    es, rot, u, mod = h["es"][:m], h["rot"][:m], h["u"][:m], h["mod"][:m]
    np.take(E, triples[:, 0], axis=0, out=es, mode="clip")
    np.multiply(es, np.take(b["rotations"], triples[:, 1], axis=0, out=rot, mode="clip"), out=u)
    u -= np.take(E, triples[:, 2], axis=0, out=b["c"][:m], mode="clip")
    np.abs(u, out=mod)
    np.negative(np.sum(mod, axis=1, out=scores), out=scores)


def _rotate_backward(params, triples, h, ws, coeff) -> None:
    m, b = len(triples), ws.buf
    c, es, rot, gu, mod = b["c"][:m], h["es"][:m], h["rot"][:m], h["u"][:m], h["mod"][:m]
    # gu = -u / |u|, and 0 where |u| = 0, written over u
    nz = np.greater(mod, 0, out=b["nz"][:m])
    np.negative(gu, out=c)
    gu.fill(0)
    np.divide(c, mod, out=gu, where=nz)
    # every complex product is written apart from its operands (see _complex_forward); es, spent once
    # conj(es) is taken, is the second buffer
    np.conjugate(rot, out=rot)
    np.multiply(np.multiply(np.conjugate(es, out=c), gu, out=es), rot, out=c)
    ws.scatter("relation", triples[:, 1], np.multiply(coeff, c.imag, out=mod))
    np.multiply(coeff, np.multiply(rot, gu, out=c), out=es)
    ws.scatter("entity", triples[:, 0], es)
    ws.scatter("entity", triples[:, 2], np.multiply(-coeff, gu, out=c))


def _start_halves(params: ModelParams, ws: _BatchWorkspace) -> None:
    """What the forward passes of a batch's halves share: RotatE's rotations exp(i theta) of every relation."""
    if params.kind is ModelKind.ROTATE:
        rotations = ws.buf["rotations"]
        np.exp(np.multiply(1j, params.blocks["relation"], out=rotations), out=rotations)


_HALVES = {
    ModelKind.TRANSE: (_transe_forward, _transe_backward),
    ModelKind.COMPLEX: (_complex_forward, _complex_backward),
    ModelKind.ROTATE: (_rotate_forward, _rotate_backward),
}


def _elementwise_step(params: ModelParams, pos: np.ndarray, neg: np.ndarray, margin: float,
                      ws: _BatchWorkspace) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """TransE, ComplEx and RotatE: each half scored on its own, its forward results kept for its gradient.

    In a partly active batch, a half's backward pass reads the active rows
    of its forward results, copied into ``act`` in order.
    """
    forward, backward = _HALVES[params.kind]
    n, b = len(pos), ws.buf
    _start_halves(params, ws)
    scores = b["scores"][:2 * n]
    forward(params, pos, b["pos"], ws, scores[:n])
    forward(params, neg, b["neg"], ws, scores[n:])
    losses, active = _hinge(margin, scores, ws)
    rows = np.flatnonzero(active)
    if len(rows):
        scale = 1.0 / n
        for triples, half, coeff in ((pos, b["pos"], -scale), (neg, b["neg"], scale)):
            if len(rows) < n:  # np.compress would buffer a copy of its output
                for name, buf in half.items():
                    np.take(buf, rows, axis=0, out=b["act"][name][:len(rows)], mode="clip")
                triples, half = np.take(triples, rows, axis=0, out=b["act_triples"][:len(rows)], mode="clip"), b["act"]
            backward(params, triples, half, ws, coeff)
    return losses, ws.grads


def _bilinear_forward(params: ModelParams, triples: np.ndarray, ws: _BatchWorkspace,
                      scores: np.ndarray) -> tuple:
    """RESCAL and TuckER: the scores of ``triples`` into ``scores``, from S M_r of each relation's rows.

    The triples are sorted by relation once, so each relation's rows are one
    block and its M_r is built once.  Returns the sort order, the sorted
    triples, their relations, their blocks and the M_r; S, O and S M_r stay
    in the workspace.
    """
    n, b = len(triples), ws.buf
    E, R = params.blocks["entity"], params.blocks["relation"]
    order = np.argsort(triples[:, 1], kind="stable")
    X = np.take(triples, order, axis=0, out=b["sorted"][:n], mode="clip")
    rels, starts = np.unique(X[:, 1], return_index=True)
    blocks = [slice(lo, hi) for lo, hi in zip(starts.tolist(), [*starts[1:].tolist(), n])]
    S = np.take(E, X[:, 0], axis=0, out=b["S"][:n], mode="clip")
    O = np.take(E, X[:, 2], axis=0, out=b["O"][:n], mode="clip")
    SM = b["SM"][:n]
    if params.kind is ModelKind.RESCAL:
        M = [R[rel] for rel in rels.tolist()]
    else:
        w = np.take(R, rels, axis=0, out=b["rel_rows"][:len(rels)], mode="clip")
        M = np.matmul(w, params.blocks["core"], out=b["M"][:, :len(rels)]).transpose(1, 0, 2)
    sorted_scores = b["sorted_scores"][:n]
    for k, rows in enumerate(blocks):
        np.einsum("ij,ij->i", np.matmul(S[rows], M[k], out=SM[rows]), O[rows], out=sorted_scores[rows])
    scores[order] = sorted_scores
    return order, X, rels, blocks, M


def _bilinear_step(params: ModelParams, pos: np.ndarray, neg: np.ndarray, margin: float,
                   ws: _BatchWorkspace) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """RESCAL and TuckER: one forward pass over [pos; neg], whose M_r serve both halves.

    S M_r, weighted by the rows' loss coefficients (-1/B for an active
    positive of a B-pair batch, 1/B for an active negative, 0 for an
    inactive pair), gives the object gradients.
    """
    half, b = len(pos), ws.buf
    n = 2 * half
    gR = ws.grads["relation"]
    pairs = b["pairs"][:n]
    pairs[:half], pairs[half:] = pos, neg
    scores = b["scores"][:n]
    order, X, rels, blocks, M = _bilinear_forward(params, pairs, ws, scores)
    losses, active = _hinge(margin, scores, ws)
    if not active.any():
        return losses, ws.grads
    S, O, SM = b["S"][:n], b["O"][:n], b["SM"][:n]
    scale, coeff = 1.0 / half, b["coeff"][:n]
    np.multiply(active, -scale, out=coeff[:half])
    np.multiply(active, scale, out=coeff[half:])
    c = np.take(coeff, order, out=b["sorted_coeff"][:n], mode="clip")[:, None]
    S *= c
    for k, rows in enumerate(blocks):
        # G_r = sum_i c_i s_i o_i^T is RESCAL's relation gradient; then S's rows become O M_r^T
        np.matmul(S[rows].T, O[rows], out=gR[rels[k]] if params.kind is ModelKind.RESCAL else b["G"][k])
        np.matmul(O[rows], M[k].T, out=S[rows])
    ws.scatter("entity", X[:, 0], np.multiply(S, c, out=S))  # O is spent: the scatter index is its memory
    ws.scatter("entity", X[:, 2], np.multiply(SM, c, out=SM))
    if params.kind is ModelKind.TUCKER:
        # relation rows sum_a G[r, a, :] W[a]^T, the products for each a written over the spent
        # M_r, and core slices W'[a] = sum_r w_r G[r, a, :]
        G, W, w = b["G"][:len(rels)], params.blocks["core"], b["rel_rows"][:len(rels)]
        P = np.matmul(G.transpose(1, 0, 2), W.transpose(0, 2, 1), out=b["M"][:, :len(rels)])
        gR[rels] = np.sum(P, axis=0, out=b["rel_grads"][:len(rels)])
        np.matmul(w.T, G.transpose(1, 0, 2), out=ws.grads["core"])
    return losses, ws.grads


def batch_loss_and_gradients(
    params: ModelParams, pos: np.ndarray, neg: np.ndarray, margin: float,
    workspace: _BatchWorkspace | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-pair hinge losses and the gradient of their batch mean.

    ``neg[i]`` is the corruption of ``pos[i]``.  The step writes into
    ``workspace``, a :class:`_BatchWorkspace` for at least len(pos) pairs,
    or into a new one.  The losses and gradient blocks returned are views
    into it: they stay valid until its next step.
    """
    pos, neg = np.asarray(pos, dtype=np.int64), np.asarray(neg, dtype=np.int64)
    for triples in (pos, neg):
        _check_ids(params, triples[:, ::2], triples[:, 1])
    ws = _BatchWorkspace(params, len(pos)) if workspace is None else workspace
    if len(pos) > ws.rows:
        raise ValueError(f"a batch of {len(pos)} pairs does not fit a workspace for {ws.rows}")
    for g in ws.grads.values():
        g.fill(0.0)
    step = _bilinear_step if params.kind in _BILINEAR else _elementwise_step
    return step(params, pos, neg, margin, ws)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path: str | Path) -> Path:
    """Write a bit-exact checkpoint (.npz with a JSON header)."""
    path = Path(path)
    header = {
        "kind": params.kind.value,
        "dim": params.dim,
        "num_entities": params.num_entities,
        "num_relations": params.num_relations,
        "seed": params.seed,
    }
    if params.vocabulary_sha256 is not None:
        header["vocabulary_sha256"] = params.vocabulary_sha256
    arrays = {f"block_{name}": arr for name, arr in params.blocks.items()}
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(header, sort_keys=True)), **arrays)
    return path


def _header_int(header: dict, key: str) -> int:
    value = header[key]
    if isinstance(value, (bool, float)):  # int() would turn 3.7 into 3
        raise ValueError(f"{key} {value!r} is not an integer")
    return int(value)


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint.

    :class:`CheckpointError` if the file is not a readable ``.npz`` archive,
    if the header lacks a key or holds a value of the wrong kind (a float
    where an integer belongs included), or if a block's name, shape or dtype
    disagrees with the header.
    """
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise CheckpointError(f"{path}: a single .npy array, not an .npz archive")
        with archive as data:
            if "header" not in data.files:
                raise CheckpointError(f"{path}: no header")
            header_text = str(data["header"])
            blocks = {name[len("block_"):]: data[name] for name in data.files if name.startswith("block_")}
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: not a readable .npz archive: {exc}") from None
    try:
        header = json.loads(header_text)
        dim, num_entities, num_relations, seed = (
            _header_int(header, key) for key in ("dim", "num_entities", "num_relations", "seed"))
        params = ModelParams(kind=ModelKind(header["kind"]), dim=dim, num_entities=num_entities,
                             num_relations=num_relations, seed=seed, blocks=blocks,
                             vocabulary_sha256=header.get("vocabulary_sha256"))
    except KeyError as exc:
        raise CheckpointError(f"{path}: header has no {exc} key") from None
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: header cannot describe a model: {exc}") from None
    expected = _block_specs(params.kind, params.num_entities, params.num_relations, params.dim)
    for name in sorted(expected.keys() | blocks.keys()):
        found = (blocks[name].shape, blocks[name].dtype) if name in blocks else None
        if found != expected.get(name):
            raise CheckpointError(f"{path}: block {name!r} is {found or 'missing'}, expected {expected.get(name)} for "
                                  f"{params.kind.value} dim {params.dim}, {params.num_entities} entities, "
                                  f"{params.num_relations} relations")
    return params

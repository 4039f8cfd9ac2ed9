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
workspace of its own.  The step (``batch_loss_and_gradients``) is one path
for every model: one forward pass over [pos; neg], the hinge, then, if a
hinge is active, the backward pass, both passes the model's in ``_STEPS``.
TransE's, ComplEx's and RotatE's backward pass runs on the positive half's
forward results, then on the negative half's.  The step writes into
``_BatchWorkspace``, built once per run: the gradient blocks, cleared each
batch, and every gathered row, product, score, loss and scatter index,
written with ``out=`` into the batch's first rows, so that no array of a
batch's size is mapped and faulted in afresh on every batch.  Every per-row
scatter goes through ``_scatter_rows``: one ``np.add.at`` on a flat view of
the block, with the bits of the row-wise ``np.add.at`` in a fraction of its
time.  Losses, and the elementwise models' gradients, are bit-identical to
the allocating step in ``tests/reference_models.py``; RESCAL's and TuckER's
gradients agree with it within 1e-12.

A pair's exact score is a float64 sum over the real columns of its query
row and of the entity, in column order: -Σ|q - e| for TransE, minus the
moduli of the (re, im) pairs for RotatE, Σ q e for RESCAL, TuckER and
ComplEx, whose query rows are E[s] M_r, one BLAS product per row, and E[s]
* w_r.  One method computes it, ``_ObjectScorer.pair_scores``, for chosen
(query row, entity) pairs, one numpy call per column across the pairs, so
each score has the same bits whatever pairs share the call and whatever
the BLAS thread count is.  ``score_objects`` scores k queries against all N
entities with it, one query's N pairs at a time, as a (k, N) float64 block.
``evaluation.rank_queries`` ranks every model through one
``_ScreenedScorer``, shared by its threads: ``workspace(k)`` gives a thread
its buffers for jobs of up to k queries, and ``bracketed(s, r, o,
workspace)`` returns a job's ``(tiles, lower, upper, true_score, exact)``:
its float32 screen as column tiles, per row bounds around the true object's
exact score, rounded outward, and ``exact(rows, objects)``, the
``pair_scores`` of chosen pairs.  TransE's screen is the distance kernel in
float32, one tile of all N entities, within δ of the exact scores
(``_distance_bound``): bounds t -/+ δ.  RotatE's takes one float32 GEMM per
complex dimension, |q - e|² + c = |q|² + c + |e|² - 2 Re(q conj(e)) for a
whole (k, N) block, then a square root and a subtraction: three passes over
the block where a column loop makes seven.  Its offset c covers the GEMM's
rounding, so no square is negative and its scores lie at most δ above the
exact scores but up to δ + sum_j sqrt(2 c_j) below them (``_rotate_lhs``):
bounds t - that and t + δ.  RESCAL's, TuckER's and ComplEx's jobs hold the
queries of one relation, screened with one float32 GEMM per tile of
``_TILE`` entities, within δ of the exact scores (``_dot_bound``): bounds t
-/+ δ.  A job whose float32 pass cannot be trusted comes as its exact
scores, from ``pair_scores`` tile by tile, with both bounds at t.  Every gather clips ids (numpy's "raise" mode buffers a
copy of ``out``), so ``_check_ids`` checks them first.  The BLAS thread
count is left as the environment sets it: the float32 screens use it, and
the exact scores do not depend on it (see ``_ObjectScorer``).

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
from functools import partial
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
    scores = np.empty(len(triples))
    _STEPS[params.kind][0](params, triples, _BatchWorkspace(params, len(triples), backward=False), scores)
    return scores


# Models scored as a distance, screened one block of all N entities at a time; the others are scored as a
# dot product, screened against entity tiles of _TILE columns.
_DISTANCE = (ModelKind.TRANSE, ModelKind.ROTATE)
_TILE = 1024


def score_objects(params: ModelParams, s, r) -> np.ndarray:
    """Scores of every entity as candidate object of (s, r, ?).

    ``s`` and ``r`` are ids or id arrays of k queries, broadcast against each
    other (a ``ValueError`` if their lengths cannot be).  Two scalar ids give
    the (N,) score vector, otherwise a (k, N) block with one row per query.
    Each entry is its pair's exact score (see :class:`_ObjectScorer`), with
    the same bits whatever k is.  The query rows are built once, then each
    query's N pairs are scored in one :meth:`_ObjectScorer.pair_scores`
    call: one numpy pass per real column over chunks of ``PAIR_ROWS``
    pairs, with no copy of E.  ``evaluation.rank_queries`` ranks by the same
    exact scores and computes them only for the pairs its float32 screen
    cannot place.
    """
    scalar = np.ndim(s) == 0 and np.ndim(r) == 0
    s, r = np.broadcast_arrays(np.atleast_1d(np.asarray(s, dtype=np.int64)),
                               np.atleast_1d(np.asarray(r, dtype=np.int64)))
    _check_ids(params, s, r)
    scorer = _ObjectScorer(params, np.unique(r))
    ws = scorer.workspace(len(s))
    out = scorer.exact_block(scorer.query_rows(s, r, ws), 0, np.empty((len(s), params.num_entities)), ws)
    return out[0] if scalar else out


def _transposed(a: np.ndarray, dtype) -> np.ndarray:
    """A ``dtype`` copy of a.T.  Copied 64 rows at a time, it took a third of
    the time of a plain transposed copy (6,940 x 128 float64, 2-vCPU Xeon)."""
    a_t = np.empty(a.shape[::-1], dtype=dtype)
    for start in range(0, len(a), 64):
        a_t[:, start:start + 64] = a[start:start + 64].T
    return a_t


class _ObjectScorer:
    """Queries (s, r, ?) of any model scored exactly in float64, against chosen entities.

    A pair's exact score is a sum over the real columns c of its query row
    Q_i and of the entity E_j, in c order: -Σ_c |Q_i[c] - E_j[c]| for
    TransE, minus the sum of the moduli of the (re, im) column pairs for
    RotatE, and Σ_c Q_i[c] E_j[c] for RESCAL, TuckER and ComplEx (64 real
    terms at dim 64, or 128 for ComplEx's real view).  Q_i is E[s_i] +
    R[r_i] for TransE, E[s_i] * R[r_i] for ComplEx and for RotatE, whose R
    holds the rotations exp(i theta), and E[s_i] M_r for RESCAL and TuckER:
    one BLAS product of a row by M_r per row, whose bits do not depend on
    how many rows are built together, nor on the BLAS thread count (they
    had the bits of ``np.dot`` per row at dims 7 to 512, under 1 and 2
    OpenBLAS threads), unlike the rows of a (k, d) by (d, d) matmul.

    Prepared once: M_r of each relation of ``rels`` for RESCAL and TuckER
    (built one relation at a time), the float64 view ``E64`` of E and, for
    RotatE, the rotations as ``R``; no copy of E is made.  Threads may share
    a scorer, each scoring into a :meth:`workspace` of its own.
    """

    #: (query, entity) pairs that pair_scores scores at once.  RotatE settles about 60 pairs per query; on
    #: the 10x init checkpoint, 512 ranked its queries 5-10% faster than 128 (two workers, 2-vCPU Xeon).
    PAIR_ROWS = 512

    def __init__(self, params: ModelParams, rels: np.ndarray) -> None:
        self.kind, self.E = params.kind, params.blocks["entity"]
        self.rotate = params.kind is ModelKind.ROTATE
        self.distance = self.kind in _DISTANCE
        self.R = np.exp(1j * params.blocks["relation"]) if self.rotate else params.blocks["relation"]
        self.E64 = self.E.view(np.float64)
        #: the terms a pair's score sums: RotatE's (re, im) column pairs, the others' real columns
        self.terms = self.E64.shape[1] // 2 if self.rotate else self.E64.shape[1]
        if self.kind in _BILINEAR:
            self.M = {rel: _relation_matrices(params, np.array([rel]))[0] for rel in rels.tolist()}

    def workspace(self, k: int) -> dict[str, np.ndarray]:
        """Buffers for up to k queries: the (k, d) query rows ``q``, subject rows ``w`` and, but for RESCAL and
        TuckER, relation rows ``r``, and the ``pairs`` that :meth:`pair_scores` scores at once."""
        d = self.E.shape[1]
        ws = {"q": np.empty((k, d), dtype=self.E.dtype), "w": np.empty((k, d), dtype=self.E.dtype),
              "pairs": np.empty((2, self.PAIR_ROWS, self.E64.shape[1]))}
        if self.kind not in _BILINEAR:
            ws["r"] = np.empty((k, d), dtype=self.R.dtype)
        return ws

    def query_rows(self, s: np.ndarray, r: np.ndarray, ws: dict) -> np.ndarray:
        """Write the query rows of (s[i], r[i], ?) into the workspace's ``q``, and return their float64 view.
        ``w`` takes E[s] and ``r`` R[r].  The gathers clip ids, so callers check them first."""
        k = len(s)
        q, w = ws["q"][:k], ws["w"][:k]
        np.take(self.E, s, axis=0, out=w, mode="clip")  # the "raise" mode would buffer a copy of w
        if self.kind in _BILINEAR:
            # a stack of (1, d) by (d, d) products: numpy calls BLAS once per row, so each row has the bits of
            # a one-row matmul, however many rows there are
            rels, groups = _relation_groups(r)
            for rel, rows in zip(rels.tolist(), groups):
                if len(rows) == len(s):
                    np.matmul(w[:, None], self.M[rel], out=q[:, None])
                else:
                    q[rows] = np.matmul(w[rows, None], self.M[rel])[:, 0]
            return q
        # into q, not in place: numpy's in-place complex product of one element is rounded apart from that of many
        (np.add if self.kind is ModelKind.TRANSE else np.multiply)(
            w, np.take(self.R, r, axis=0, out=ws["r"][:k], mode="clip"), out=q)
        return q.view(np.float64)

    def pair_scores(self, q: np.ndarray, rows: np.ndarray, objs: np.ndarray, ws: dict,
                    out: np.ndarray | None = None) -> np.ndarray:
        """The exact float64 scores of the pairs (query row q[rows[i]], entity objs[i]), written into ``out``
        (a new array if None) and returned.

        Up to ``PAIR_ROWS`` pairs at a time are gathered into the workspace's
        ``pairs``, their terms formed with one numpy call each, and summed
        from 0 one column at a time in column order, so a pair's score has the
        same bits whatever pairs share the call.  The gathers clip ids.
        """
        out = np.empty(len(rows)) if out is None else out
        out.fill(0.0)
        diffs, entities = ws["pairs"]
        for start in range(0, len(rows), len(diffs)):
            m = min(len(diffs), len(rows) - start)
            diff, e = diffs[:m], entities[:m]
            np.take(q, rows[start:start + m], axis=0, out=diff, mode="clip")
            np.take(self.E64, objs[start:start + m], axis=0, out=e, mode="clip")
            if not self.distance:
                terms = np.multiply(diff, e, out=diff)
            elif self.rotate:
                np.subtract(diff, e, out=diff)
                np.multiply(diff, diff, out=diff)
                terms = np.add(diff[:, 0::2], diff[:, 1::2], out=e[:, :self.terms])
                np.sqrt(terms, out=terms)
            else:
                terms = np.abs(np.subtract(diff, e, out=diff), out=diff)
            total, add = out[start:start + m], np.subtract if self.distance else np.add
            for column in terms.T:
                add(total, column, out=total)
        return out

    def exact_block(self, q: np.ndarray, start: int, out: np.ndarray, ws: dict) -> np.ndarray:
        """Write the exact scores of the query rows q against the w entities from ``start`` into ``out`` (k, w),
        one query's w pairs per :meth:`pair_scores` call, and return it."""
        objs = np.arange(start, start + out.shape[1])
        for i, row in enumerate(out):
            self.pair_scores(q, np.full(len(objs), i), objs, ws, out=row)
        return out


def _negated_distance_sums(q: np.ndarray, e_t: np.ndarray, buf: np.ndarray, out: np.ndarray) -> None:
    """Write -sum_d |q[i, d] - E[j, d]| for every query row i and entity j into ``out`` (k, N): TransE's screen.

    ``e_t`` is E transposed, here in float32 as q is.  The loop runs over the
    dimension on (k, N) buffers, ``out`` and ``buf``, so no (k, N, d)
    temporary is formed.
    """
    out.fill(0.0)
    for d in range(e_t.shape[0]):
        np.subtract(q[:, d, None], e_t[d], out=buf)
        np.abs(buf, out=buf)
        out -= buf


# float32's unit roundoff, and its least normal number: an operation whose
# result lies below that in magnitude is off by at most that much, under
# gradual underflow and flush-to-zero alike.
_U32 = 2.0 ** -24
_TINY32 = 2.0 ** -126
# Query rows and entities of a norm below this (L1 for TransE and RotatE, L2
# for the others) are screened in float32: no cast, product, square or sum of
# theirs can overflow float32.
_SCREEN_LIMIT = 2.0 ** 60


def _distance_bound(l1: np.ndarray, terms: int, rotate: bool) -> np.ndarray:
    """A bound δ on |s32 - s64| for a query row and any entity whose L1 norms sum to at most ``l1``.

    s64 is the pair's exact float64 score (:meth:`_ObjectScorer.pair_scores`)
    and s32 its terms and sum for the pair cast to float32, computed in
    float32 (TransE's :func:`_negated_distance_sums`); ``terms`` is the
    number of terms summed (the float columns for TransE, the (re, im) pairs
    for RotatE).  RotatE's screen is a GEMM per pair of columns instead,
    which :func:`_rotate_lhs` bounds from the per-modulus errors derived here.  Both scores are compared with the
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


def _dot_bound(q_l2: np.ndarray, e_l2: float, terms: int) -> np.ndarray:
    """A bound δ on |s32 - s64| for query rows of L2 norm ``q_l2`` and any entity of L2 norm at most ``e_l2``.

    s64 is the exact float64 score Σ_c Q_c E_c (:meth:`_ObjectScorer.pair_scores`)
    of a pair of ``terms`` real columns, and s32 the float32 GEMM's score of
    the pair rounded to float32, a = fl32(Q) and b = fl32(E), summed in any
    order, with fused multiply-adds or not.  Both are compared with the exact score
    s, in the model of :func:`_distance_bound` (u, t, γ_n, n = ``terms``):

    * The casts give |a_c - Q_c| <= u |Q_c| + t, and the same for b, so
      |a_c b_c - Q_c E_c| <= (2u + u²) |Q_c E_c| + (1 + u) t (|Q_c| +
      |E_c|) + t², and |a_c b_c| is at most (1 + u)² |Q_c E_c| plus the
      same t terms.
    * The float32 dot product of a and b is off by at most γ_n Σ_c |a_c
      b_c| (Higham §3.1), plus 2n (1 + γ_n) t for the underflow of its 2n
      - 1 operations, each scaled by at most n later roundings.

    By Cauchy-Schwarz Σ |Q_c E_c| <= ‖Q‖₂ ‖E‖₂, and ‖x‖₁ <= √n ‖x‖₂, so,
    with t² <= t, |s32 - s| <= (γ_n (1 + u)² + 2u + u²) ‖Q‖₂ ‖E‖₂ + (1 +
    γ_n)((1 + u) √n t (‖Q‖₂ + ‖E‖₂) + 3n t).  It needs γ_n <= 0.1 and no
    overflow: under ``_SCREEN_LIMIT`` every |a_c|, |b_c| and product, and
    every partial sum, stays below 2^122.  So the screen is finite.  The
    sequential float64 sum is off from s by at most γ_n Σ |Q_c E_c| + 2n (1
    + γ_n) t with float64's u and t, which are smaller, so δ is twice the
    float32 bound.  The float64 rounding of the norms and of δ (relative,
    under 1e-13) is far inside that factor of two.
    """
    gamma = terms * _U32 / (1 - terms * _U32)
    rounding = gamma * (1 + _U32) ** 2 + 2 * _U32 + _U32 ** 2
    underflow = (1 + gamma) * ((1 + _U32) * math.sqrt(terms) * _TINY32 * (q_l2 + e_l2) + 3 * terms * _TINY32)
    return 2 * (rounding * q_l2 * e_l2 + underflow)


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
    :func:`_distance_bound`) below the exact scores the screen's may lie.

    The screen writes x̃ = fl(A_j · B_j), a float32 dot product of four
    terms, for every entity, then fl(√x̃), and sums those in column order.
    With a = q̂_j and b = ê_j, the float32 query and entity values, in the
    model of :func:`_distance_bound` (u, t, γ_n), u' being
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
    adds u relatively, so each float32 term lies within the per-modulus
    error of :func:`_distance_bound` (5u times the four |q| + |e| plus 3 √t)
    of the exact modulus, but for up to (1 + u) √(2c) more upward.  The
    sequential sum scales those extras by at most 1 + γ_n.  The screen's
    scores are then at most δ above the exact scores, and at most δ + (1 +
    γ_n)(1 + u) Σ_j √(2 c_ij) below them.  Under ``_SCREEN_LIMIT``,
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
    passes over the (k, N) buffers, against seven for a loop over the
    columns.
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


class _ScreenedScorer(_ObjectScorer):
    """Query jobs of any model screened in float32 and bracketed around their exact float64 scores.

    :meth:`screen` scores a job in float32 from float32 copies of the exact
    query rows and of the entities, held in float32 only, as column tiles of
    up to ``tile`` entities: TransE with :func:`_negated_distance_sums` on E
    transposed (``E_t``) and RotatE with one GEMM per complex dimension on
    the operands ``B`` of :func:`_rotate_operands`, in one tile of all N
    entities; RESCAL, TuckER and ComplEx with one float32 GEMM per tile of
    ``_TILE`` entities of E transposed.  It bounds how far below and above
    the exact scores each row's may lie (:func:`_distance_bound`, for RotatE
    with :func:`_rotate_lhs`'s offsets, and :func:`_dot_bound`);
    :meth:`pair_scores` gives the exact scores of chosen pairs.  A job the
    screen cannot be trusted on comes as its exact scores, tile by tile from
    :meth:`exact_block`, in a float64 buffer made only then: each thread's
    :meth:`workspace` holds none.
    """

    def __init__(self, params: ModelParams, rels: np.ndarray) -> None:
        super().__init__(params, rels)
        n = len(self.E64)
        #: entities per screened tile, and the bytes per query of a job's screen buffers: TransE's and RotatE's
        #: two float32 (k, N) planes, or the others' one float32 (k, tile) tile
        self.tile = n if self.distance else min(_TILE, n)
        self.row_bytes = (8 if self.distance else 4) * self.tile
        if self.rotate:
            self.B, self.e_sq = _rotate_operands(self.E64)
        else:
            self.E_t = _transposed(self.E64, np.float32)
        # the largest L1 norm of an entity for TransE and RotatE, else L2; np.max, unlike max(), keeps a NaN
        if self.distance:
            self.e_norm = float(np.max([np.abs(self.E64[i:i + 256]).sum(axis=1).max() for i in range(0, n, 256)],
                                       initial=0.0))
        else:
            self.e_norm = math.sqrt(np.max(np.einsum("ij,ij->i", self.E64, self.E64), initial=0.0))
        self.screenable = self.terms * _U32 <= 0.05 and self.e_norm < _SCREEN_LIMIT

    def workspace(self, k: int) -> dict[str, np.ndarray]:
        """Buffers for jobs of up to k queries: :meth:`_ObjectScorer.workspace`'s, the float32 query rows
        ``q32``, TransE's and RotatE's float32 (k, N) scores and kernel buffer ``planes32``, the others' float32
        ``tile32``, flat so that each tile's (k, w) view is contiguous, and RotatE's left-hand operands ``A``
        and its (k, terms) ``Z`` and ``c`` (:func:`_rotate_lhs`)."""
        n, width = self.E64.shape
        ws = super().workspace(k) | {"q32": np.empty((k, width), dtype=np.float32)}
        # zeroed: a GEMM or GEMV that scales its output by 0 first would keep a NaN found there
        if self.distance:
            ws["planes32"] = np.zeros((2, k, n), dtype=np.float32)
        else:
            ws["tile32"] = np.zeros(k * self.tile, dtype=np.float32)
        if self.rotate:
            ws |= {"A": np.ones((self.terms, k, 4), dtype=np.float32), "Z": np.empty((k, self.terms)),
                   "c": np.empty((k, self.terms))}
        return ws

    def screen(self, s: np.ndarray, r: np.ndarray, ws: dict) -> tuple:
        """The exact float64 query rows of (s[i], r[i], ?) as a real view, and,
        if the float32 pass can be trusted, its tiles, and per row how far below
        and above the exact scores they may lie, else None for those three.
        The tiles are (start, (k, w) float32 scores of the w entities from
        start) in entity order: TransE's and RotatE's one tile, scored here, or
        the others' tiles, each scored when it is taken, into the buffer of the
        one before.  The screen cannot be trusted when a query row's or an
        entity's norm is ``_SCREEN_LIMIT`` or more or not finite, or, for
        TransE and RotatE, when a float32 score is not finite.  The gathers
        clip ids."""
        k = len(s)
        q = self.query_rows(s, r, ws)
        if self.distance:
            norm = np.abs(q, out=ws["w"][:k].view(np.float64)).sum(axis=1)  # w is spent
        else:
            norm = np.sqrt(np.einsum("ij,ij->i", q, q))
        if not (self.screenable and norm.max() < _SCREEN_LIMIT):
            return q, None, None, None
        q32 = ws["q32"][:k]
        np.copyto(q32, q, casting="same_kind")
        if not self.distance:
            delta = _dot_bound(norm, self.e_norm, self.terms)
            return q, self._gemm_tiles(q32, ws["tile32"]), delta, delta
        out, buf = ws["planes32"][:, :k]
        delta = _distance_bound(norm + self.e_norm, self.terms, self.rotate)
        if self.rotate:
            A = ws["A"][:, :k]
            below = delta + _rotate_lhs(q32, self.e_sq, A, ws["Z"][:k], ws["c"][:k])
            _rotate_screen(A, self.B, buf, out)
        else:
            below = delta
            _negated_distance_sums(q32, self.E_t, buf, out)
        if not np.isfinite(out.min()):  # min keeps a NaN
            return q, None, None, None
        return q, [(0, out)], below, delta

    def _gemm_tiles(self, q32: np.ndarray, buf: np.ndarray):
        """The float32 screen q32 @ E^T, one GEMM per tile of entities, each written over the one before."""
        k, n = len(q32), self.E_t.shape[1]
        for start in range(0, n, self.tile):
            w = min(self.tile, n - start)
            yield start, np.matmul(q32, self.E_t[:, start:start + w], out=buf[:k * w].reshape(k, w))

    def _exact_tiles(self, q: np.ndarray, ws: dict):
        """The exact float64 scores of the query rows q, one tile at a time, each written over the one before."""
        k, n = len(q), len(self.E64)
        out = np.empty(k * self.tile)
        for start in range(0, n, self.tile):
            w = min(self.tile, n - start)
            yield start, self.exact_block(q, start, out[:k * w].reshape(k, w), ws)

    def bracketed(self, s: np.ndarray, r: np.ndarray, o: np.ndarray, ws: dict) -> tuple:
        """The job of the queries (s[i], r[i], o[i]) as ``(tiles, lower, upper, true_score, exact)``.

        ``tiles`` are its float32 screen's (see :meth:`screen`), bracketed by
        t - below and t + above rounded outward, t being each row's true
        object's exact score, and ``exact(rows, objects)`` gives the exact
        scores of chosen pairs.  If the screen cannot be trusted, the tiles
        are the exact float64 scores, with both bounds t: only the ties
        are settled.
        """
        q, tiles, below, above = self.screen(s, r, ws)
        t = self.pair_scores(q, np.arange(len(s)), o, ws)

        def exact(rows, objs):
            return self.pair_scores(q, rows, objs, ws)

        if tiles is None:
            return self._exact_tiles(q, ws), t, t, t, exact
        return tiles, _outward32(t - below, -np.inf), _outward32(t + above, np.inf), t, exact


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

    The forward passes write these, for n triples: [pos; neg] in a step
    (n = 2 * rows), or ``score_batch``'s rows without ``backward`` (n =
    rows).  RESCAL and TuckER hold the triples sorted by relation, the
    sorted rows' gathered subjects S and objects O, S M_r and the sorted
    scores, and TuckER the batch's relation rows and their M_r (stored as
    W x_2 w_r leaves it, relation second).  The other models keep their
    forward results (the dict ``fwd``) and shared work buffers; RotatE also
    exp(i theta) of every relation.  With ``backward`` (the step's), every
    model adds [pos; neg] (``pairs``), their scores, the losses and the
    active mask.  RESCAL and TuckER add the loss coefficients in both orders
    and, for TuckER, G per relation and the relation gradient rows.  The
    others add the active rows of a partly active half's forward results
    (``act``) and of its triples, the flat scatter ``index`` and its
    ``columns``, and the backward passes' work buffers.
    """
    real, cplx, ids = np.dtype(np.float64), np.dtype(np.complex128), np.dtype(np.int64)
    n = 2 * rows if backward else rows
    step = {"pairs": ((n, 3), ids), "scores": ((n,), real), "losses": ((rows,), real),
            "active": ((rows,), np.dtype(bool))}
    if kind in _BILINEAR:
        specs = {"sorted": ((n, 3), ids), "S": ((n, d), real), "O": ((n, d), real), "SM": ((n, d), real),
                 "sorted_scores": ((n,), real)}
        step |= {"coeff": ((n,), real), "sorted_coeff": ((n,), real), "columns": ((d,), ids)}
        if kind is ModelKind.TUCKER:
            specs |= {"rel_rows": ((r, d), real), "M": ((d, r, d), real)}
            step |= {"G": ((r, d, d), real), "rel_grads": ((r, d), real)}
        return specs | step if backward else specs
    width = d if kind is ModelKind.TRANSE else 2 * d
    step |= {"index": ((rows * width,), ids), "columns": ((width,), ids), "act_triples": ((rows, 3), ids)}
    if kind is ModelKind.TRANSE:
        fwd, shared, shared_step = {"u": real}, {"t": real}, {"g": real}
    elif kind is ModelKind.COMPLEX:
        fwd, shared, shared_step = {"es": cplx, "w": cplx, "eo": cplx, "esw": cplx}, {"c": cplx, "conj_eo": cplx}, {}
    else:
        fwd, shared, shared_step = {"es": cplx, "rot": cplx, "u": cplx, "mod": real}, {"c": cplx}, {"nz": bool}
    specs = {name: ((n, d), np.dtype(dtype)) for name, dtype in shared.items()}
    specs["fwd"] = {buf: ((n, d), dtype) for buf, dtype in fwd.items()}
    if kind is ModelKind.COMPLEX:
        specs["csum"] = ((n,), cplx)
    elif kind is ModelKind.ROTATE:
        specs["rotations"] = ((r, d), cplx)
    if not backward:
        return specs
    step["act"] = {buf: ((rows, d), dtype) for buf, dtype in fwd.items()}
    return specs | step | {name: ((rows, d), np.dtype(dtype)) for name, dtype in shared_step.items()}


class _BatchWorkspace:
    """The training step's buffers, for batches of up to ``rows`` (positive, negative) pairs.

    Built once per training run: ``grads`` holds the gradient blocks and
    ``buf`` the buffers of :func:`_workspace_specs`, by name (``buf["fwd"]``
    and ``buf["act"]`` are dicts of forward results).  A step clears the
    gradient blocks and writes into the first rows of the buffers, so a
    shorter last batch reuses them.  RESCAL's and TuckER's scatter index is
    O's memory, spent by the time they scatter.  Without ``backward`` it
    holds only what the forward passes of ``rows`` triples write, and no
    gradient blocks.
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


# The elementwise models' passes.  A forward pass writes the ``fwd`` rows
# and the scores of its triples; a backward pass adds coeff * (d score /
# d params) of the triples whose forward results ``h`` holds.

def _transe_forward(params, triples, ws, scores) -> None:
    E, R = params.blocks["entity"], params.blocks["relation"]
    m, b = len(triples), ws.buf
    u, t = b["fwd"]["u"][:m], b["t"][:m]
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


def _complex_forward(params, triples, ws, scores) -> None:
    E, R = params.blocks["entity"], params.blocks["relation"]
    m, b, h = len(triples), ws.buf, ws.buf["fwd"]
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


def _rotate_forward(params, triples, ws, scores) -> None:
    """RotatE's scores, from the rotations exp(i theta) of every relation, written once per call."""
    E = params.blocks["entity"]
    m, b, h = len(triples), ws.buf, ws.buf["fwd"]
    es, rot, u, mod, rotations = h["es"][:m], h["rot"][:m], h["u"][:m], h["mod"][:m], b["rotations"]
    np.exp(np.multiply(1j, params.blocks["relation"], out=rotations), out=rotations)
    np.take(E, triples[:, 0], axis=0, out=es, mode="clip")
    np.multiply(es, np.take(rotations, triples[:, 1], axis=0, out=rot, mode="clip"), out=u)
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


def _elementwise_backward(backward, params, pairs, saved, active, ws) -> None:
    """TransE, ComplEx and RotatE: the model's ``backward`` on the positive half's ``fwd`` rows, then the negative's.

    In a partly active batch, a half's backward pass reads the active rows
    of its forward results, copied into ``act`` in order.  The halves keep
    their own calls, in this order: the order of the scatters decides the
    gradient's bits.
    """
    n, b = len(active), ws.buf
    rows, scale = np.flatnonzero(active), 1.0 / n
    for half, coeff in ((slice(0, n), -scale), (slice(n, 2 * n), scale)):
        triples, h = pairs[half], {name: buf[half] for name, buf in b["fwd"].items()}
        if len(rows) < n:  # np.compress would buffer a copy of its output
            for name, buf in h.items():
                np.take(buf, rows, axis=0, out=b["act"][name][:len(rows)], mode="clip")
            triples, h = np.take(triples, rows, axis=0, out=b["act_triples"][:len(rows)], mode="clip"), b["act"]
        backward(params, triples, h, ws, coeff)


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


def _bilinear_backward(params: ModelParams, pairs: np.ndarray, saved: tuple, active: np.ndarray,
                       ws: _BatchWorkspace) -> None:
    """RESCAL and TuckER: both halves' gradients at once, from the forward pass's M_r.

    S M_r, weighted by the rows' loss coefficients (-1/B for an active
    positive of a B-pair batch, 1/B for an active negative, 0 for an
    inactive pair), gives the object gradients.
    """
    order, X, rels, blocks, M = saved
    n, half, b = len(pairs), len(active), ws.buf
    gR = ws.grads["relation"]
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


# Each model's (forward, backward) passes; the backward pass reads what the forward pass returns as ``saved``.
_STEPS = {
    ModelKind.RESCAL: (_bilinear_forward, _bilinear_backward),
    ModelKind.TUCKER: (_bilinear_forward, _bilinear_backward),
    ModelKind.TRANSE: (_transe_forward, partial(_elementwise_backward, _transe_backward)),
    ModelKind.COMPLEX: (_complex_forward, partial(_elementwise_backward, _complex_backward)),
    ModelKind.ROTATE: (_rotate_forward, partial(_elementwise_backward, _rotate_backward)),
}


def batch_loss_and_gradients(
    params: ModelParams, pos: np.ndarray, neg: np.ndarray, margin: float,
    workspace: _BatchWorkspace | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-pair hinge losses and the gradient of their batch mean.

    ``neg[i]`` is the corruption of ``pos[i]``.  One forward pass scores
    [pos; neg]; the model's backward pass runs if any hinge is active.  The
    step writes into ``workspace``, a :class:`_BatchWorkspace` for at least
    len(pos) pairs, or into a new one.  The losses and gradient blocks
    returned are views into it: they stay valid until its next step.
    """
    pos, neg = np.asarray(pos, dtype=np.int64), np.asarray(neg, dtype=np.int64)
    for triples in (pos, neg):
        _check_ids(params, triples[:, ::2], triples[:, 1])
    ws = _BatchWorkspace(params, len(pos)) if workspace is None else workspace
    if len(pos) > ws.rows:
        raise ValueError(f"a batch of {len(pos)} pairs does not fit a workspace for {ws.rows}")
    for g in ws.grads.values():
        g.fill(0.0)
    forward, backward = _STEPS[params.kind]
    pairs, scores = ws.buf["pairs"][:2 * len(pos)], ws.buf["scores"][:2 * len(pos)]
    pairs[:len(pos)], pairs[len(pos):] = pos, neg
    saved = forward(params, pairs, ws, scores)
    losses, active = _hinge(margin, scores, ws)
    if active.any():
        backward(params, pairs, saved, active, ws)
    return losses, ws.grads


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

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
(GEMMs): with the rows S, O of one relation, the entity gradients are O M_r^T
and S M_r, and G_r = S^T O is RESCAL's relation gradient, from which TuckER's
relation and core gradients are one contraction each with W and w.

Gradients accumulate into dense blocks.  Every per-row scatter (entity rows,
and the relation rows of the elementwise models) goes through
``_scatter_rows``: one ``np.add.at`` on the flat float64 view of the block,
which adds the same values in the same order as the row-wise ``np.add.at``
and so gives the same bits, in about a third of the time.

``score_objects`` scores k queries against all N entities as one (k, N)
block: a GEMM per relation for the bilinear models, one real GEMM on the
float64 views for ComplEx, and a loop over the embedding dimension on (k, N)
buffers for the distance models TransE and RotatE.  It is built on
``_ObjectScorer``, which prepares what every block reuses once (M_r, the
float64 views, E transposed) and scores each block into buffers the caller
allocates; ``evaluation.rank_queries`` shares one scorer between the threads
that rank its blocks.  The BLAS thread count of the GEMM models is left as
the environment sets it.

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


def apply_constraints(params: ModelParams) -> None:
    """Project parameters back onto their constraint sets, in place."""
    if params.kind is ModelKind.TRANSE:
        ent = params.blocks["entity"]
        ent /= np.linalg.norm(ent, axis=1, keepdims=True)
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


def score_batch(params: ModelParams, triples: np.ndarray) -> np.ndarray:
    """Scores for an (B, 3) array of (subject, relation, object) id triples."""
    triples = np.atleast_2d(np.asarray(triples, dtype=np.int64))
    s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
    E, R = params.blocks["entity"], params.blocks["relation"]
    kind = params.kind
    if kind is ModelKind.TRANSE:
        return -np.abs(E[s] + R[r] - E[o]).sum(axis=1)
    if kind in _BILINEAR:
        out = np.empty(len(triples))
        rels, groups = _relation_groups(r)
        M = _relation_matrices(params, rels)
        for k, rows in enumerate(groups):
            out[rows] = np.einsum("ij,ij->i", E[s[rows]] @ M[k], E[o[rows]])
        return out
    if kind is ModelKind.COMPLEX:
        return np.real(np.sum(E[s] * R[r] * np.conj(E[o]), axis=1))
    if kind is ModelKind.ROTATE:
        rot = np.exp(1j * R)[r]
        return -np.abs(E[s] * rot - E[o]).sum(axis=1)
    raise ValueError(f"unhandled model kind {kind}")  # pragma: no cover


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
    scorer = _ObjectScorer(params, np.unique(r))
    out = scorer(s, r, scorer.workspace(len(s)))
    return out[0] if scalar else out


class _ObjectScorer:
    """Scores queries (s, r, ?) against all N entities, as (k, N) blocks.

    What every block reuses is prepared once: M_r of each relation of
    ``rels`` (built one relation at a time, as for a block of one relation),
    the float64 view of E, the rotations exp(i theta) and E transposed.  It
    does not change after that, so threads may share a scorer, each scoring
    into a :meth:`workspace` of its own.
    """

    def __init__(self, params: ModelParams, rels: np.ndarray) -> None:
        self.kind = kind = params.kind
        self.E, self.R = E, R = params.blocks["entity"], params.blocks["relation"]
        if kind in _BILINEAR:
            self.M = {rel: _relation_matrices(params, np.array([rel]))[0] for rel in rels.tolist()}
        elif kind is ModelKind.COMPLEX:
            self.E64 = E.view(np.float64)
        else:
            if kind is ModelKind.ROTATE:
                self.R = np.exp(1j * R)
            # E_t[2d] holds the real parts of dimension d, E_t[2d + 1] the imaginary ones.  Copied 64 rows
            # at a time, it took a third of the time of a plain transposed copy (6,940 x 128, 2-vCPU Xeon).
            E64 = E.view(np.float64)
            self.E_t = np.empty(E64.shape[::-1])
            for start in range(0, len(E64), 64):
                self.E_t[:, start:start + 64] = E64[start:start + 64].T

    def workspace(self, k: int) -> list[np.ndarray]:
        """Buffers for blocks of up to k queries: the (k, N) scores, the (k, d) query rows, the relation
        rows (q M_r for RESCAL and TuckER), and one (k, N) work buffer for TransE, two for RotatE."""
        n, d = self.E.shape
        w = np.empty((k, d), dtype=self.E.dtype if self.kind in _BILINEAR else self.R.dtype)
        extra = {ModelKind.TRANSE: 1, ModelKind.ROTATE: 2}.get(self.kind, 0)
        return [np.empty((k, n)), np.empty((k, d), dtype=self.E.dtype), w, *(np.empty((k, n)) for _ in range(extra))]

    def __call__(self, s: np.ndarray, r: np.ndarray, workspace: list[np.ndarray]) -> np.ndarray:
        """The (k, N) scores of the queries (s[i], r[i], ?), written into the
        first k rows of the workspace's score buffer, which is returned."""
        out, q, w, *bufs = (buf[:len(s)] for buf in workspace)
        E, kind = self.E, self.kind
        np.take(E, s, axis=0, out=q)
        if kind in _BILINEAR:
            rels, groups = _relation_groups(r)
            for rel, rows in zip(rels.tolist(), groups):
                if len(rows) == len(s):
                    np.matmul(np.matmul(q, self.M[rel], out=w), E.T, out=out)
                else:
                    out[rows] = (q[rows] @ self.M[rel]) @ E.T
            return out
        np.take(self.R, r, axis=0, out=w)
        if kind is ModelKind.TRANSE:
            q += w
        else:
            q *= w
        if kind is ModelKind.COMPLEX:
            # Re(sum_k q_k conj(e_k)) is the real dot product of the (re, im) pairs
            np.matmul(q.view(np.float64), self.E64.T, out=out)
        else:
            _negated_distance_sums(q.view(np.float64), self.E_t, bufs, out)
        return out


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

def _scatter_rows(g: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """Add rows[i] into g[idx[i]] for every i in turn, as ``np.add.at(g, idx, rows)`` does.

    ``g`` is C-contiguous and ``rows`` has its dtype.  The scatter runs on
    the flat float64 views, a complex row as its (re, im) pairs, with index
    idx[i] * width + j for element j of row i.  Each element of ``g`` gets
    the same additions in the same order, so the result is bit-identical,
    and numpy's one-dimensional ``add.at`` is 3-4x faster than the row-wise
    one (512 rows of 64 into 685 x 64 on a 2-vCPU Xeon).  The flat index is
    the only temporary.
    """
    flat = g.view(np.float64).reshape(-1)
    width = flat.size // len(g)
    np.add.at(flat, (idx[:, None] * width + np.arange(width)).reshape(-1),
              np.ascontiguousarray(rows).view(np.float64).reshape(-1))


def _accumulate_score_grads(
    params: ModelParams, grads: dict[str, np.ndarray], triples: np.ndarray, coeff: float
) -> None:
    """Add coeff * (d score / d params) of each triple into dense ``grads``."""
    if len(triples) == 0:
        return
    s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
    E, R = params.blocks["entity"], params.blocks["relation"]
    gE, gR = grads["entity"], grads["relation"]
    kind = params.kind
    if kind is ModelKind.TRANSE:
        sgn = np.sign(E[s] + R[r] - E[o])
        _scatter_rows(gE, s, -coeff * sgn)
        _scatter_rows(gR, r, -coeff * sgn)
        _scatter_rows(gE, o, coeff * sgn)
    elif kind in _BILINEAR:
        rels, groups = _relation_groups(r)
        M = _relation_matrices(params, rels)
        es, eo = E[s], E[o]
        g_s, g_o, G = np.empty_like(es), np.empty_like(eo), np.empty(M.shape)
        for k, rows in enumerate(groups):
            g_s[rows] = eo[rows] @ M[k].T
            g_o[rows] = es[rows] @ M[k]
            G[k] = es[rows].T @ eo[rows]
        _scatter_rows(gE, s, coeff * g_s)
        _scatter_rows(gE, o, coeff * g_o)
        # rels are distinct, so a fancy-indexed += adds each row once
        if kind is ModelKind.RESCAL:
            gR[rels] += coeff * G
        else:
            # sum_ac W[a, b, c] G[r, a, c] as one GEMM over the flat (a, c) index
            W, d = params.blocks["core"], params.dim
            gR[rels] += coeff * (G.reshape(len(G), d * d) @ W.transpose(0, 2, 1).reshape(d * d, d))
            grads["core"] += coeff * np.einsum("rac,rb->abc", G, R[rels], optimize=True)
    elif kind is ModelKind.COMPLEX:
        es, eo, w = E[s], E[o], R[r]
        _scatter_rows(gE, s, coeff * (np.conj(w) * eo))
        _scatter_rows(gR, r, coeff * (np.conj(es) * eo))
        _scatter_rows(gE, o, coeff * (es * w))
    elif kind is ModelKind.ROTATE:
        rot = np.exp(1j * R)[r]
        es = E[s]
        u = es * rot - E[o]
        m = np.abs(u)
        gu = np.zeros_like(u)
        nz = m > 0
        gu[nz] = -u[nz] / m[nz]
        _scatter_rows(gE, s, coeff * (np.conj(rot) * gu))
        _scatter_rows(gE, o, -coeff * gu)
        _scatter_rows(gR, r, coeff * np.imag(np.conj(es) * gu * np.conj(rot)))
    else:  # pragma: no cover
        raise ValueError(f"unhandled model kind {kind}")


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.blocks.items()}


def batch_loss_and_gradients(
    params: ModelParams, pos: np.ndarray, neg: np.ndarray, margin: float
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-pair hinge losses and the gradient of their batch mean."""
    pos_scores = score_batch(params, pos)
    neg_scores = score_batch(params, neg)
    losses = np.maximum(0.0, margin + neg_scores - pos_scores)
    grads = zero_grads(params)
    active = losses > 0.0
    if active.any():
        scale = 1.0 / len(pos)
        _accumulate_score_grads(params, grads, pos[active], -scale)
        _accumulate_score_grads(params, grads, neg[active], scale)
    return losses, grads


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

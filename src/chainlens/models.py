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
buffers for the distance models TransE and RotatE.  The distance loop is
split by entity range: one contiguous range of the N entities per usable
processor (``DISTANCE_WORKERS``, from the CPU affinity mask), as long as
each range keeps ``MIN_RANGE_SCORES`` scores.  A worker thread scores each
range on arrays of its own, so every score is bit-identical to the
one-thread result.  The threads, started on the first split block, run only
numpy calls that release the GIL; the BLAS thread count of the GEMM models
is left as the environment sets it.

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
import os
import threading
import zipfile
from concurrent.futures import ThreadPoolExecutor
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


def score(params: ModelParams, s: int, r: int, o: int) -> float:
    """Plausibility score of one triple; higher means more plausible."""
    return float(score_batch(params, np.array([[s, r, o]]))[0])


def score_objects(params: ModelParams, s, r) -> np.ndarray:
    """Scores of every entity as candidate object of (s, r, ?).

    ``s`` and ``r`` are ids, or equal-length id arrays of k queries.  Scalar
    ids give the (N,) score vector, arrays a (k, N) block with one row per
    query.  Each row is computed the same way whatever k is, apart from the
    summation order BLAS picks for the bilinear models and ComplEx.
    """
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=np.int64))
    r = np.atleast_1d(np.asarray(r, dtype=np.int64))
    E, R = params.blocks["entity"], params.blocks["relation"]
    kind = params.kind
    if kind in _BILINEAR:
        out = np.empty((len(s), len(E)))
        rels, groups = _relation_groups(r)
        M = _relation_matrices(params, rels)
        for k, rows in enumerate(groups):
            out[rows] = (E[s[rows]] @ M[k]) @ E.T
    elif kind is ModelKind.COMPLEX:
        # Re(sum_k q_k conj(e_k)) is the real dot product of the (re, im) pairs
        out = (E[s] * R[r]).view(np.float64) @ E.view(np.float64).T
    elif kind is ModelKind.TRANSE:
        out = _negated_distance_sums(E[s] + R[r], E)
    elif kind is ModelKind.ROTATE:
        out = _negated_distance_sums(E[s] * np.exp(1j * R)[r], E)
    else:  # pragma: no cover
        raise ValueError(f"unhandled model kind {kind}")
    return out[0] if scalar else out


#: Entity ranges a distance-model score block is split into, one per usable processor.
DISTANCE_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
#: Fewest scores per range.  Every ufunc call hands the GIL between the
#: threads, which small ranges do not repay: on a 2-vCPU Xeon (TransE and
#: RotatE, d = 64, 6,940 entities) two ranges of 14k-28k scores took
#: 0.77-1.48 times as long as one range, of 42k scores 0.62-0.80 times.
MIN_RANGE_SCORES = 1 << 15

_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()


def _distance_pool() -> ThreadPoolExecutor:
    """The worker threads of ``_negated_distance_sums``, started on first use."""
    global _executor
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max_workers=DISTANCE_WORKERS, thread_name_prefix="chainlens-distance")
        return _executor


def _forget_distance_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _executor
    _executor = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_distance_pool)


def _negated_distance_sums(q: np.ndarray, E: np.ndarray) -> np.ndarray:
    """-sum_d |q[i, d] - E[j, d]| for every query row i and entity j, as (k, N).

    Complex entries (RotatE) contribute their modulus, sqrt(re^2 + im^2).  The
    N entities are cut into ``DISTANCE_WORKERS`` contiguous ranges, at most
    N and few enough that each holds ``MIN_RANGE_SCORES`` scores, and a
    worker thread per range runs ``_distance_range`` on it.  Every element
    goes through the same operations in the same order whatever the number
    of ranges, so the block is bit-identical to the one-range result.  The
    threads overlap because numpy releases the GIL inside each ufunc call.
    Each range works on C-contiguous arrays of its own (strided column
    slices of shared arrays were slower), allocated here in the calling
    thread so that no worker's malloc arena keeps a block's memory, and the
    ranges' columns are joined at the end.  With one range the call runs in
    the calling thread and starts no pool.
    """
    k, n = len(q), len(E)
    pairs = np.iscomplexobj(E)
    if pairs:
        # float64 views interleave (re, im): column 2d of q and row 2d of
        # e_t hold the real parts of dimension d, 2d + 1 the imaginary parts
        q, E = q.view(np.float64), E.view(np.float64)
    ranges = max(1, min(DISTANCE_WORKERS, n, k * n // MIN_RANGE_SCORES))
    edges = [n * i // ranges for i in range(ranges + 1)]
    parts = [(E[lo:hi], np.empty((E.shape[1], hi - lo)), np.empty((2 if pairs else 1, k, hi - lo)),
              np.zeros((k, hi - lo))) for lo, hi in zip(edges, edges[1:])]
    if ranges == 1:
        _distance_range(q, *parts[0])
        return parts[0][-1]
    pool = _distance_pool()
    futures = [pool.submit(_distance_range, q, *part) for part in parts]
    for future in futures:
        future.result()
    return np.concatenate([part[-1] for part in parts], axis=1)


def _distance_range(q: np.ndarray, E: np.ndarray, e_t: np.ndarray, bufs: np.ndarray, out: np.ndarray) -> None:
    """Subtract each query's distance to every row of ``E`` from ``out`` (k, len(E)).

    ``E`` is real, with (re, im) column pairs when ``bufs`` holds two
    buffers.  The rows of E are first copied transposed into ``e_t``, then
    the loop runs over the embedding dimension on the (k, len(E)) buffers,
    so no (k, N, d) temporary is formed.
    """
    _transpose_into(E, e_t)
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


def _transpose_into(a: np.ndarray, out: np.ndarray) -> None:
    """Write a.T into ``out``, 64 rows of ``a`` at a time.

    A plain copy of the transpose of a tall matrix reads a new cache line for
    every element; copying in row blocks was 3-4x faster for a 6,940 x 128
    float64 matrix on a 2-vCPU Xeon.
    """
    for start in range(0, len(a), 64):
        out[:, start:start + 64] = a[start:start + 64].T


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

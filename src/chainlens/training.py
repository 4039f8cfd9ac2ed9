"""Training loop: margin ranking loss, Adam, early stopping, grid search.

One uniform protocol for all five model families: shuffled mini-batches,
one (configurable) negative per positive, Adam with bias correction, and
early stopping on filtered validation hits@10 evaluated every ``eval_every``
epochs.  Training stops once hits@10 fails to strictly improve on
``patience`` consecutive evaluations; the parameters returned are the
checkpoint from the best evaluation, not the last.  An epoch whose mean loss
or parameters are not all finite stops training with :class:`TrainingDiverged`.
A run whose estimated memory (``models.training_bytes``) exceeds the memory
limit is refused with :class:`ConfigError` before it allocates; a grid
search skips such points.

Everything is seeded and deterministic: the same config yields the same
trajectory bit for bit.
"""

from __future__ import annotations

import logging
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path, PurePosixPath

import numpy as np

from .dataset import ConfigError, KvConfig
from .evaluation import build_filter_index, evaluate
from .models import (
    ModelKind,
    ModelParams,
    _BatchWorkspace,
    apply_constraints,
    batch_loss_and_gradients,
    corrupt_batch,
    init_params,
    training_bytes,
)

logger = logging.getLogger(__name__)

# Hyperparameter grids for grid_search (6 x 3 = 18 runs).
GRID_DIMS = (16, 32, 64, 256, 512, 1024)
GRID_LEARNING_RATES = (0.0001, 0.001, 0.01)


@dataclass(frozen=True)
class TrainConfig(KvConfig):
    dim: int = 64
    learning_rate: float = 0.001
    margin: float = 1.0
    negatives_per_positive: int = 1
    max_epochs: int = 1000
    eval_every: int = 10
    patience: int = 3
    batch_size: int = 512
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ConfigError("dim must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be positive and finite")
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ConfigError("margin must be non-negative and finite")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1)")
        if not (math.isfinite(self.adam_epsilon) and self.adam_epsilon > 0):
            raise ConfigError("adam_epsilon must be positive and finite")
        if self.negatives_per_positive < 1:
            raise ConfigError("negatives_per_positive must be at least 1")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be non-negative")
        if self.eval_every <= 0 or self.patience <= 0 or self.batch_size <= 0:
            raise ConfigError("eval_every, patience, and batch_size must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


class TrainingDiverged(Exception):
    """Raised when an epoch ends with a non-finite mean loss or parameters."""

    def __init__(self, message: str, epoch: int) -> None:
        super().__init__(message)
        self.epoch = epoch


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def _float_view(arr: np.ndarray) -> np.ndarray:
    # complex blocks update as interleaved (re, im) float pairs
    return arr.view(np.float64) if np.iscomplexobj(arr) else arr


@dataclass
class AdamState:
    """Adam's moments ``m`` and ``v`` of each parameter block, and the block's
    two scratch arrays, ``scratch[name] = (buf, step)``, which every update
    overwrites."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    scratch: dict[str, tuple[np.ndarray, np.ndarray]]

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        views = {k: _float_view(a) for k, a in params.blocks.items()}
        return cls(step=0, m={k: np.zeros_like(a) for k, a in views.items()},
                   v={k: np.zeros_like(a) for k, a in views.items()},
                   scratch={k: (np.empty_like(a), np.empty_like(a)) for k, a in views.items()})


def adam_step(
    params: ModelParams,
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update, in place, plus constraint projection.

    Per block: m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g, and
    p -= (lr m_hat) / (sqrt(v_hat) + eps) with m_hat = m / (1 - b1^t) and
    v_hat = v / (1 - b2^t).  The operations run in place, in the order
    written, so the update is bit-identical to the plain expressions.  Their
    only temporaries are the block's two scratch arrays in ``state``, written
    with ``out=``: ``buf``, which ends as the denominator, and ``step``.
    TransE's projection then squares its entity rows into the entity block's
    ``buf``.  The gradients are only read.
    """
    state.step += 1
    t = state.step
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
    lr = config.learning_rate
    for name, p in params.blocks.items():
        g = _float_view(grads[name])
        m, v = state.m[name], state.v[name]
        buf, step = state.scratch[name]
        np.multiply(1.0 - b1, g, out=buf)
        m *= b1
        m += buf
        np.multiply(1.0 - b2, g, out=buf)
        buf *= g
        v *= b2
        v += buf
        np.divide(v, 1.0 - b2**t, out=buf)
        np.sqrt(buf, out=buf)
        buf += eps
        np.divide(m, 1.0 - b1**t, out=step)
        step *= lr
        step /= buf
        pv = _float_view(p)
        pv -= step
    apply_constraints(params, state.scratch["entity"][0] if params.kind is ModelKind.TRANSE else None)
    return params, state


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

# This process's cgroups, and where the cgroup v2 hierarchy and the v1 memory
# hierarchy are mounted, with the file that holds a cgroup's memory limit
PROC_SELF_CGROUP = "/proc/self/cgroup"
CGROUP_V2 = ("/sys/fs/cgroup", "memory.max")
CGROUP_V1_MEMORY = ("/sys/fs/cgroup/memory", "memory.limit_in_bytes")
# The file beside each limit file that holds the cgroup's memory in use, and
# the kernel's estimate of the memory that can be allocated without swapping
CGROUP_USAGE = {"memory.max": "memory.current", "memory.limit_in_bytes": "memory.usage_in_bytes"}
PROC_MEMINFO = "/proc/meminfo"


def _read_bytes(path: Path) -> int | None:
    """The byte count a cgroup file holds, or None if it is missing, unreadable or not a number ("max")."""
    try:
        text = path.read_text(encoding="ascii").strip()
    except (OSError, UnicodeDecodeError):
        return None
    return int(text) if text.isdigit() else None


def _cgroup_levels() -> Iterator[tuple[Path, str]]:
    """(directory, limit file name) of every level of this process's memory cgroups, from the root down.

    ``/proc/self/cgroup`` names the process's cgroup v2 (its ``0::`` line)
    and its cgroup v1 memory cgroup (the line whose controllers include
    ``memory``), under each hierarchy's mount point.  A cgroup outside the
    process's cgroup namespace is seen only as the mount's root.
    """
    try:
        listing = Path(PROC_SELF_CGROUP).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError):
        listing = []
    for line in listing:
        number, controllers, path = (line.split(":", 2) + ["", ""])[:3]
        if number == "0" and not controllers:
            mount, name = CGROUP_V2
        elif "memory" in controllers.split(","):
            mount, name = CGROUP_V1_MEMORY
        else:
            continue
        parts = PurePosixPath(path).parts[1:]
        if ".." in parts:
            parts = ()
        for depth in range(len(parts) + 1):
            yield Path(mount, *parts[:depth]), name


def memory_available() -> int:
    """Bytes this process may allocate now: the least of physical RAM, the
    memory limit set on its cgroup or an ancestor, that limit less the
    memory the level has in use (``memory.current``;
    ``memory.usage_in_bytes`` in cgroup v1), and ``MemAvailable`` in
    ``/proc/meminfo``.

    Files are only read.  A level that is not there (a cgroup namespace, or
    a mount of a subtree, shows only part of the path) is passed over, "max"
    sets no limit, and a file that is missing or unreadable is passed over.
    """
    free = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for directory, name in _cgroup_levels():
        limit = _read_bytes(directory / name)
        if limit is not None:
            used = _read_bytes(directory / CGROUP_USAGE[name])
            free = min(free, limit if used is None else max(limit - used, 0))
    try:
        meminfo = Path(PROC_MEMINFO).read_text(encoding="ascii").splitlines()
    except (OSError, UnicodeDecodeError):
        meminfo = []
    for line in meminfo:
        key, _, value = line.partition(":")
        fields = value.split()
        if key == "MemAvailable" and fields and fields[0].isdigit():
            free = min(free, int(fields[0]) * 1024)  # in kB
    return free


def _needed_bytes(kind: ModelKind, n_train: int, num_entities: int, num_relations: int,
                  config: TrainConfig) -> int:
    """``training_bytes`` of a run of ``config`` over ``n_train`` triples, whose largest batch is the first."""
    return training_bytes(kind, num_entities, num_relations, config.dim, min(config.batch_size, n_train),
                          config.negatives_per_positive)


@dataclass
class TrainRecord:
    epoch: int
    hits10: float
    mrr: float
    mean_loss: float


@dataclass
class TrainHistory:
    records: list[TrainRecord] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int = 0

    def to_csv(self, path: str | Path) -> None:
        lines = ["epoch,hits@10,mrr,loss"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.hits10:.6f},{r.mrr:.6f},{r.mean_loss:.6f}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def train(
    kind: ModelKind,
    train_triples: np.ndarray,
    valid_triples: np.ndarray,
    num_entities: int,
    num_relations: int,
    config: TrainConfig,
) -> tuple[ModelParams, TrainHistory]:
    """Train one model; returns the best-evaluation checkpoint and history.

    Every ``eval_every`` epochs the validation triples are ranked by
    :func:`~chainlens.evaluation.evaluate` in the filtered setting, with
    train + validation as the filter set, and early stopping reads their
    hits@10.  With no validation triples training runs all ``max_epochs``
    unevaluated.  If no evaluation ever runs (max_epochs < eval_every) the
    final parameters are returned.

    A run whose :func:`~chainlens.models.training_bytes` exceed
    :func:`memory_available` raises :class:`ConfigError` before it allocates.
    Every batch's step writes into one workspace, built with the Adam state.
    """
    train_triples = np.asarray(train_triples, dtype=np.int64)
    valid_triples = np.asarray(valid_triples, dtype=np.int64)
    if train_triples.ndim != 2 or train_triples.shape[1] != 3:
        raise ConfigError("train_triples must be an (M, 3) id array")
    needed, free = _needed_bytes(kind, len(train_triples), num_entities, num_relations, config), memory_available()
    if needed > free:
        raise ConfigError(f"{kind.value} at dim {config.dim} needs about {needed / 2**30:,.2f} GiB to train, "
                          f"more than the {free / 2**30:,.2f} GiB memory limit of what is free now")
    filter_index = build_filter_index([train_triples, valid_triples]) if len(valid_triples) else None

    params = init_params(kind, num_entities, num_relations, config)
    state = AdamState.for_params(params)
    workspace = _BatchWorkspace(params, min(config.batch_size, len(train_triples)) * config.negatives_per_positive)
    rng = np.random.default_rng([config.seed, 0x5EED])

    history = TrainHistory()
    best_params = params.copy()
    best_epoch = 0
    best_hits = -np.inf
    bad_evals = 0
    mean_loss = 0.0
    k_neg = config.negatives_per_positive

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_triples))
        losses_sum = 0.0
        n_pairs = 0
        for start in range(0, len(order), config.batch_size):
            batch = train_triples[order[start : start + config.batch_size]]
            pos = np.repeat(batch, k_neg, axis=0) if k_neg > 1 else batch
            neg = corrupt_batch(pos, num_entities, rng)
            losses, grads = batch_loss_and_gradients(params, pos, neg, config.margin, workspace)
            adam_step(params, grads, state, config)
            losses_sum += float(losses.sum())
            n_pairs += len(losses)
        mean_loss = losses_sum / max(n_pairs, 1)
        finite = params.all_finite()
        if not (finite and np.isfinite(mean_loss)):
            raise TrainingDiverged(
                f"{kind.value} diverged at epoch {epoch}: mean loss {mean_loss:g}"
                + ("" if finite else ", non-finite parameters"),
                epoch,
            )

        if filter_index is not None and epoch % config.eval_every == 0:
            report = evaluate(params, valid_triples, filter_index, setting="filtered")
            hits10, mrr = report.hits[10], report.mrr
            history.records.append(TrainRecord(epoch=epoch, hits10=hits10, mrr=mrr, mean_loss=mean_loss))
            logger.info(
                "%s epoch %d: loss %.4f, val hits@10 %.4f, val mrr %.4f",
                kind.value, epoch, mean_loss, hits10, mrr,
            )
            if hits10 > best_hits:
                best_hits = hits10
                for name, block in params.blocks.items():  # into the checkpoint's own arrays
                    np.copyto(best_params.blocks[name], block)
                best_epoch = epoch
                bad_evals = 0
            else:
                bad_evals += 1
                if bad_evals >= config.patience:
                    history.stopped_early = True
                    break

    if not history.records:
        best_params = params
        best_epoch = config.max_epochs
    history.best_epoch = best_epoch
    return best_params, history


@dataclass
class GridResult:
    best_config: TrainConfig
    best_params: ModelParams
    best_history: TrainHistory
    best_mrr: float
    runs: list[tuple[int, float, float]]  # (dim, learning_rate, validation mrr)
    skipped: list[tuple[int, float, int]]  # (dim, learning_rate, training_bytes) over the memory limit


def grid_search(
    kind: ModelKind,
    train_triples: np.ndarray,
    valid_triples: np.ndarray,
    num_entities: int,
    num_relations: int,
    base_config: TrainConfig,
) -> GridResult:
    """Train one model per grid point and keep the best by validation MRR.

    The grid is ``GRID_DIMS`` x ``GRID_LEARNING_RATES`` over ``base_config``,
    dims outermost.  A run's MRR is the filtered validation MRR that
    :func:`train` recorded at its best epoch, or one evaluation of its
    parameters when it never evaluated.  Ties break toward the smaller dim,
    then the smaller learning rate.  Points whose training would exceed
    :func:`memory_available` are skipped and listed in ``skipped``; if none is
    left, :class:`ConfigError`.
    """
    configs = [replace(base_config, dim=dim, learning_rate=lr) for dim in GRID_DIMS for lr in GRID_LEARNING_RATES]
    valid_triples = np.asarray(valid_triples, dtype=np.int64)
    filter_index = build_filter_index([train_triples, valid_triples])
    result: GridResult | None = None
    runs: list[tuple[int, float, float]] = []
    skipped: list[tuple[int, float, int]] = []
    free = memory_available()
    for config in configs:
        needed = _needed_bytes(kind, len(train_triples), num_entities, num_relations, config)
        if needed > free:
            skipped.append((config.dim, config.learning_rate, needed))
            logger.info("grid %s dim=%d lr=%g: skipped, needs %d bytes", kind.value, config.dim,
                        config.learning_rate, needed)
            continue
        params, history = train(
            kind, train_triples, valid_triples, num_entities, num_relations, config
        )
        # train recorded the filtered validation MRR of its best epoch, with the same filter index
        recorded = [rec.mrr for rec in history.records if rec.epoch == history.best_epoch]
        mrr = recorded[0] if recorded else evaluate(params, valid_triples, filter_index, setting="filtered").mrr
        runs.append((config.dim, config.learning_rate, mrr))
        logger.info(
            "grid %s dim=%d lr=%g: val mrr %.4f",
            kind.value, config.dim, config.learning_rate, mrr,
        )
        key = (-mrr, config.dim, config.learning_rate)
        if result is None or key < (-result.best_mrr, result.best_config.dim, result.best_config.learning_rate):
            result = GridResult(
                best_config=config,
                best_params=params,
                best_history=history,
                best_mrr=mrr,
                runs=runs,
                skipped=skipped,
            )
    if result is None:
        raise ConfigError(f"no {kind.value} grid point fits the {free / 2**30:,.2f} GiB memory limit of what is free")
    return result

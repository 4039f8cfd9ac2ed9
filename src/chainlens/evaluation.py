"""Object-prediction ranking: MRR and hits@k, raw or filtered, per relation.

A query reads a held-out triple (s, p, o) as (s, p, ?).  Every entity is
scored as candidate object, or under a candidate table only the entities of
p's schema-legal target types; in the filtered setting, candidates other than
the true object that are known-true for (s, p) are excluded before ranking.

Tie handling follows three policies: optimistic (1 + number of strictly
better candidates), pessimistic (number of greater-or-equal candidates with
the true object itself counted once at the end), and realistic (arithmetic
mean of the two).  On an all-tie vector of length N the realistic rank is
exactly (N + 1) / 2.  A query whose true-object score is not finite ranks
last, at the number of candidates, under every policy: NaN compares false
with everything and would otherwise rank first.

:func:`rank_queries` ranks queries in blocks and returns both settings from
one score pass.  Queries are grouped by relation and each group is cut into
blocks of k rows, sized so that the (k, N) float64 score block takes about
``BLOCK_BYTES``.  Every model's blocks are ranked by one ranker,
:func:`_rank_block`, from bracketed scores that the model's scorer hands
over: a (k, N) score block with, for each row, the true object's exact
score t and a lower and an upper bound around it, and a function that gives
the exact score of any (row, entity) pair.  A candidate scoring above the
upper bound scores above t, one below the lower bound below it, and the few
in between are settled with their exact scores, as are the known-true
objects that the filtered setting drops, held by a :class:`FilterIndex` in
CSR form (one flat sorted object array with per-(s, r) offsets).  How the
scores are bracketed is the scorers' business (see :mod:`chainlens.models`);
the ranks are those of the exact scores.  The blocks are ranked on
``RANK_WORKERS`` threads, one per usable processor, each with its scorer
workspace and the ranker's two (k, N) bool masks, with the same ranks as on
one.  :func:`rank_object` ranks one query from its score vector and is the
reference the blocks are tested against: their ranks are equal.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import RELATION_BY_INDEX
from .models import ModelParams, _block_scorer, _relation_groups, score_objects

HITS_KS = (1, 3, 10)
SETTINGS = ("raw", "filtered")
TIE_POLICIES = ("optimistic", "realistic", "pessimistic")
# The name a report gives each relation id; an id beyond the built-in relations keeps its number.
_RELATION_NAMES = {i: r.value for i, r in enumerate(RELATION_BY_INDEX)}


class EmptyQuerySet(Exception):
    """evaluate() was called without any queries."""


class VocabularyMismatch(Exception):
    """Reports being combined do not share a relation vocabulary."""


@dataclass(frozen=True)
class Query:
    subject: int
    predicate: int
    true_object: int


@dataclass(frozen=True)
class RankResult:
    query: Query
    rank: float
    num_candidates: int
    setting: str
    tie_policy: str


@dataclass
class PerRelationMetrics:
    mrr: float
    hits: dict[int, float]
    count: int


@dataclass
class EvalReport:
    mrr: float
    hits: dict[int, float]
    per_relation: dict[int, PerRelationMetrics]
    setting: str
    tie_policy: str
    num_queries: int

    @classmethod
    def from_ranks(cls, queries: np.ndarray, ranks: np.ndarray, setting: str, tie_policy: str) -> "EvalReport":
        """Aggregate MRR and hits@k of the ``ranks`` of an (M, 3) query id array, overall and per relation type."""
        query_array = np.asarray(queries, dtype=np.int64).reshape(-1, 3)
        if not len(query_array):
            raise EmptyQuerySet("evaluation needs at least one query")

        def metrics(idx: np.ndarray) -> tuple[float, dict[int, float]]:
            rs = ranks[idx]
            return float(np.mean(1.0 / rs)), {k: float(np.mean(rs <= k)) for k in HITS_KS}

        mrr, hits = metrics(np.arange(len(query_array)))
        rels, groups = _relation_groups(query_array[:, 1])
        per_relation = {rel: PerRelationMetrics(*metrics(idx), count=len(idx))
                        for rel, idx in zip(rels.tolist(), groups)}
        return cls(mrr, hits, per_relation, setting, tie_policy, num_queries=len(query_array))

    def _rows(self) -> list[tuple]:
        """(name, queries, mrr, hits@1, hits@3, hits@10) of each relation, in id order."""
        return [(_RELATION_NAMES.get(rel, str(rel)), m.count, m.mrr, *(m.hits[k] for k in HITS_KS))
                for rel, m in sorted(self.per_relation.items())]

    def to_text(self) -> str:
        lines = [f"setting: {self.setting}", f"tie_policy: {self.tie_policy}", f"queries: {self.num_queries}",
                 f"mrr: {self.mrr:.6f}", *(f"hits@{k}: {self.hits[k]:.6f}" for k in HITS_KS), "",
                 "relation\tqueries\tmrr\thits@1\thits@3\thits@10"]
        lines += ["%s\t%d\t%.6f\t%.6f\t%.6f\t%.6f" % row for row in self._rows()]
        return "\n".join(lines) + "\n"

    def to_csv(self, path: str | Path) -> None:
        rows = [("ALL", self.num_queries, self.mrr, *(self.hits[k] for k in HITS_KS)), *self._rows()]
        lines = ["relation,queries,mrr,hits@1,hits@3,hits@10", *("%s,%d,%.6f,%.6f,%.6f,%.6f" % row for row in rows)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# Target size of one (k, N) float64 score block.  At 6,940 entities on a
# 2-vCPU Xeon, smaller blocks slowed every model (per-call overhead) and
# larger ones slowed TransE and RotatE, whose (k, N) work buffers then
# spill out of the L2 cache.
BLOCK_BYTES = 1 << 20


def block_rows(num_entities: int) -> int:
    """Queries per score block when ranking against ``num_entities`` candidates."""
    return max(1, BLOCK_BYTES // (8 * num_entities))


@dataclass(frozen=True, eq=False)
class FilterIndex:
    """Known-true object ids per (subject, relation), in CSR form.

    ``keys`` holds the sorted distinct s * num_relations + r of the known
    pairs; the objects of ``keys[i]`` are ``objects[offsets[i]:offsets[i + 1]]``,
    sorted ascending.
    """

    num_relations: int
    keys: np.ndarray
    offsets: np.ndarray
    objects: np.ndarray

    def _spans(self, s: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and end offsets of each pair (s[i], r[i]); start == end for unknown pairs."""
        s, r = np.asarray(s, dtype=np.int64), np.asarray(r, dtype=np.int64)
        if not len(self.keys):
            return np.zeros(len(s), dtype=np.int64), np.zeros(len(s), dtype=np.int64)
        key = s * self.num_relations + r
        pos = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        # a relation id outside [0, num_relations) would alias another pair's key
        found = (self.keys[pos] == key) & (s >= 0) & (r >= 0) & (r < self.num_relations)
        start = np.where(found, self.offsets[pos], 0)
        end = np.where(found, self.offsets[pos + 1], 0)
        return start, end

    def pairs(self, s: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(row, object) for every known-true object of every pair (s[row], r[row])."""
        start, end = self._spans(s, r)
        counts = end - start
        rows = np.repeat(np.arange(len(counts)), counts)
        run_start = np.cumsum(counts) - counts
        positions = np.arange(counts.sum()) + np.repeat(start - run_start, counts)
        return rows, self.objects[positions]


def build_filter_index(triple_sets: list[np.ndarray]) -> FilterIndex:
    """Index the known-true object ids of every (subject, relation) pair."""
    triples = np.concatenate(
        [np.empty((0, 3), dtype=np.int64)]
        + [np.asarray(arr, dtype=np.int64).reshape(-1, 3) for arr in triple_sets]
    )
    s, r, o = triples[:, 0], triples[:, 1], triples[:, 2]
    num_relations = int(r.max()) + 1 if len(r) else 0
    num_objects = int(o.max()) + 1 if len(o) else 0
    pair_key = s * num_relations + r
    # one sort orders pairs and, within a pair, objects; it also drops duplicates
    unique = np.unique(pair_key * num_objects + o)
    keys, starts = np.unique(unique // max(num_objects, 1), return_index=True)
    return FilterIndex(
        num_relations=num_relations,
        keys=keys,
        offsets=np.append(starts, len(unique)),
        objects=unique % max(num_objects, 1),
    )


def type_constrained_candidates(graph, schema) -> np.ndarray:
    """Bool (relation index, entity id) table of the allowed candidate objects,
    from the schema's target types.

    Optional ranking mode: by default every entity is a candidate object;
    passing this table to rank_queries or rank_object restricts
    candidates to the schema-legal target types of each relation.
    """
    return schema.tables()[1][:, graph.type_codes()]


def _tie_rank(greater, ties, n_candidates, true_score, tie_policy: str):
    """Rank from the counts of candidates scoring above and equal to the true
    object (the latter including it), under ``tie_policy``; elementwise."""
    optimistic = 1 + greater
    pessimistic = greater + ties
    if tie_policy == "optimistic":
        rank = optimistic
    elif tie_policy == "pessimistic":
        rank = pessimistic
    elif tie_policy == "realistic":
        rank = (optimistic + pessimistic) / 2.0
    else:
        raise ValueError(f"tie_policy must be one of {TIE_POLICIES}, got {tie_policy!r}")
    return np.where(np.isfinite(true_score), rank, n_candidates).astype(np.float64)


def _rank_from_scores(
    scores: np.ndarray,
    true_object: int,
    excluded: np.ndarray | None,
    tie_policy: str,
    allowed: np.ndarray | None = None,
) -> tuple[float, int]:
    true_score = scores[true_object]
    mask = np.ones(len(scores), dtype=bool) if allowed is None else allowed.copy()
    if excluded is not None:
        mask[excluded] = False
    mask[true_object] = True
    cand = scores[mask]
    n_candidates = int(mask.sum())
    greater = int((cand > true_score).sum())
    ties = int((cand == true_score).sum())  # includes the true object itself
    return float(_tie_rank(greater, ties, n_candidates, true_score, tie_policy)), n_candidates


def _check_setting(setting: str) -> None:
    if setting not in SETTINGS:
        raise ValueError(f"setting must be one of {SETTINGS}, got {setting!r}")


def rank_object(
    params: ModelParams,
    query: Query,
    filter_index: FilterIndex | None = None,
    setting: str = "filtered",
    tie_policy: str = "realistic",
    candidate_index: np.ndarray | None = None,
) -> RankResult:
    """Rank the true object of (subject, predicate, ?).

    All entities are candidates unless the ``candidate_index`` table restricts
    them to schema-legal target types (see :func:`type_constrained_candidates`).
    """
    _check_setting(setting)
    if not 0 <= query.subject < params.num_entities or not 0 <= query.true_object < params.num_entities:
        raise KeyError(f"query references unknown entity: {query}")
    if not 0 <= query.predicate < params.num_relations:
        raise KeyError(f"query references unknown relation: {query}")
    scores = score_objects(params, query.subject, query.predicate)
    excluded = None
    if setting == "filtered" and filter_index is not None:
        excluded = filter_index.pairs(np.array([query.subject]), np.array([query.predicate]))[1]
    allowed = None if candidate_index is None else candidate_index[query.predicate]
    rank, n_candidates = _rank_from_scores(scores, query.true_object, excluded, tie_policy, allowed)
    return RankResult(query=query, rank=rank, num_candidates=n_candidates, setting=setting, tie_policy=tie_policy)


def _rank_block(scores: np.ndarray, lower: np.ndarray, upper: np.ndarray, true_score: np.ndarray, exact,
                s: np.ndarray, r: np.ndarray, o: np.ndarray, filter_index: FilterIndex | None,
                allowed: np.ndarray | None, tie_policy: str, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw and filtered ranks of the k queries (s[i], r[i], o[i]) of one (k, N) block of bracketed scores.

    Row i's true object scores ``true_score[i]`` exactly, within [lower[i],
    upper[i]].  Every candidate scoring above ``upper`` scores above the
    true object, and every one below ``lower`` below it; the candidates in
    between, other than the true object, and the candidates that the
    filtered setting drops are settled with ``exact(rows, objects)``, their
    exact scores.  ``allowed`` marks the candidate objects, None meaning all
    entities.  Without a ``filter_index`` the filtered ranks are the raw
    ones.  ``masks`` is a (2, k', N) bool work buffer, k' >= k.
    """
    k = len(o)
    above, band = masks[:, :k]
    np.greater(scores, upper[:, None], out=above)
    np.greater_equal(scores, lower[:, None], out=band)
    band ^= above
    if allowed is not None:
        above &= allowed
        band &= allowed
    band[np.arange(k), o] = False  # the true object ties itself once, counted below
    row, obj = np.divmod(np.flatnonzero(band), band.shape[1])  # 2-D np.nonzero took 15 times as long
    settled = exact(row, obj)
    greater = above.sum(axis=1) + np.bincount(row[settled > true_score[row]], minlength=k)
    ties = 1 + np.bincount(row[settled == true_score[row]], minlength=k)
    n_candidates = np.full(k, scores.shape[1] if allowed is None else np.count_nonzero(allowed))
    if allowed is not None:
        n_candidates += ~allowed[o]  # a true object outside the candidates is still ranked
    raw = _tie_rank(greater, ties, n_candidates, true_score, tie_policy)
    if filter_index is None:
        return raw, raw
    # the known-true objects of (s[row], r[row]) other than o[row], among the candidates
    row, obj = filter_index.pairs(s, r)
    drop = obj != o[row]
    if allowed is not None:
        drop &= allowed[obj]
    row, obj = row[drop], obj[drop]
    settled = exact(row, obj)
    greater -= np.bincount(row[settled > true_score[row]], minlength=k)
    ties -= np.bincount(row[settled == true_score[row]], minlength=k)
    n_candidates -= np.bincount(row, minlength=k)
    return raw, _tie_rank(greater, ties, n_candidates, true_score, tie_policy)


#: Threads that rank score blocks, one per usable processor (the CPU affinity mask).
RANK_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _rank_pool() -> ThreadPoolExecutor:
    """The worker threads of :func:`rank_queries`, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=RANK_WORKERS, thread_name_prefix="chainlens-rank")
        return _pool


def _forget_rank_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_rank_pool)


def rank_queries(
    params: ModelParams,
    queries: np.ndarray,
    filter_index: FilterIndex | None = None,
    tie_policy: str = "realistic",
    candidate_index: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Raw and filtered ranks of the true objects of an (M, 3) query id array, in query order.

    Returns ``{"raw": ranks, "filtered": ranks}`` from one score pass; each
    rank equals :func:`rank_object`'s for the same query, setting and
    arguments.  Queries are ranked in blocks of :func:`block_rows` queries of
    one relation, on ``RANK_WORKERS`` threads when there are several blocks:
    each thread takes the next block when it has finished one and writes that
    block's rows of the rank arrays, so the ranks are those of one thread.
    The shared operands and each thread's buffers (its scorer workspace and
    the ranker's two (k, N) masks) are prepared in the calling thread, so no
    thread's malloc arena keeps a block's memory.
    """
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 3)
    s, r, o = queries[:, 0], queries[:, 1], queries[:, 2]
    bad = (s < 0) | (s >= params.num_entities) | (o < 0) | (o >= params.num_entities)
    bad |= (r < 0) | (r >= params.num_relations)
    if bad.any():
        raise KeyError(f"query references unknown ids: {tuple(queries[np.argmax(bad)].tolist())}")
    ranks = {setting: np.empty(len(queries)) for setting in SETTINGS}
    step = block_rows(params.num_entities)
    rels, groups = _relation_groups(r)
    # popped from the end, so in block order
    pending = [(rel, group[start:start + step]) for rel, group in zip(rels.tolist(), groups)
               for start in range(0, len(group), step)][::-1]
    pending_lock = threading.Lock()
    scorer = _block_scorer(params, rels)

    def rank_blocks(workspace: dict, masks: np.ndarray) -> None:
        while True:
            with pending_lock:
                if not pending:
                    return
                rel, block = pending.pop()
            sb, rb, ob = s[block], r[block], o[block]
            allowed = None if candidate_index is None else candidate_index[rel]
            ranks["raw"][block], ranks["filtered"][block] = _rank_block(
                *scorer.bracketed(sb, rb, ob, workspace), sb, rb, ob, filter_index, allowed, tie_policy, masks)

    rows = min(step, max(map(len, groups), default=0))
    workspaces = [(scorer.workspace(rows), np.empty((2, rows, params.num_entities), dtype=bool))
                  for _ in range(min(RANK_WORKERS, len(pending)))]
    if len(workspaces) == 1:
        rank_blocks(*workspaces[0])
    elif workspaces:
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

        def work(i: int) -> None:
            # Start on a processor of its own, then let the scheduler move the thread.  Left to it from the
            # start, the two workers on a 2-vCPU Xeon often shared one processor for up to a second while the
            # other one idled; pinned for the whole call, the GEMM models ranked 3-4x slower with two BLAS threads.
            if cpus:
                os.sched_setaffinity(0, {cpus[i % len(cpus)]})  # 0: this thread
                os.sched_setaffinity(0, cpus)
            rank_blocks(*workspaces[i])

        futures = [_rank_pool().submit(work, i) for i in range(len(workspaces))]
        try:
            for future in futures:
                future.result()
        finally:
            pending.clear()  # on an error, the other workers stop after their current block
            wait(futures)
    return ranks


def evaluate(
    params: ModelParams,
    queries: np.ndarray,
    filter_index: FilterIndex | None = None,
    setting: str = "filtered",
) -> EvalReport:
    """Aggregate MRR and hits@k over an (M, 3) query id array, overall and per relation type.

    ``filter_index`` holds the known-true triples (see :func:`build_filter_index`).
    Every entity is a candidate and ties rank realistically: the report is
    ``EvalReport.from_ranks`` of :func:`rank_queries`' ``setting`` ranks.
    For another tie policy or a candidate table, call those two directly.
    """
    _check_setting(setting)
    ranks = rank_queries(params, queries, filter_index)[setting]
    return EvalReport.from_ranks(queries, ranks, setting, "realistic")


@dataclass
class PerRelationTable:
    """MRR by (relation, model) with best-to-worst rank annotations per model."""

    relations: list[int]
    models: list[str]
    mrr: np.ndarray  # (num_relations, num_models)
    ordinal: np.ndarray  # same shape; 1 = best relation for that model

    def _lines(self, sep: str, digits: int, columns) -> str:
        lines = [sep.join(["relation", *(c for m in self.models for c in columns(m))])]
        lines += [sep.join([_RELATION_NAMES.get(rel, str(rel)),
                            *(f"{m:.{digits}f}{sep}{o}" for m, o in zip(self.mrr[i], self.ordinal[i]))])
                  for i, rel in enumerate(self.relations)]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        return self._lines("\t", 4, lambda m: (m, "rank"))

    def to_csv(self, path: str | Path) -> None:
        text = self._lines(",", 6, lambda m: (f"{m}_mrr", f"{m}_rank"))
        Path(path).write_text(text, encoding="utf-8")


def per_relation_table(reports: dict[str, EvalReport]) -> PerRelationTable:
    """Combine per-relation MRRs of several models into one ranked matrix."""
    if not reports:
        raise VocabularyMismatch("no reports given")
    models = list(reports)
    vocab = set(reports[models[0]].per_relation)
    for name, report in reports.items():
        if set(report.per_relation) != vocab:
            raise VocabularyMismatch(
                f"report {name!r} covers relations {sorted(report.per_relation)}, expected {sorted(vocab)}")
    relations = sorted(vocab)
    mrr = np.array([[reports[m].per_relation[rel].mrr for m in models] for rel in relations]).reshape(-1, len(models))
    # Rank within each model column: 1 = best relation; tied relations take
    # consecutive ordinals, the lower relation id first.
    ordinal = np.zeros_like(mrr, dtype=np.int64)
    ordinal[np.argsort(-mrr, axis=0, kind="stable"), np.arange(len(models))] = np.arange(1, len(relations) + 1)[:, None]
    return PerRelationTable(relations=relations, models=models, mrr=mrr, ordinal=ordinal)

"""Centrality metrics and supplier criticality scoring.

Conventions (recorded in every report's metadata so results stay
interpretable):

* degree counts triples per direction;
* betweenness runs on the directed simple graph (distinct successor sets),
  endpoints excluded, no normalization, via Brandes' accumulation of
  pair dependencies;
* closeness uses outgoing BFS distances with the Wasserman-Faust
  correction for disconnected directed graphs:
  c(u) = (r/s) * (r/(n-1)) with r reachable nodes and s their distance sum,
  0 when nothing is reachable;
* triangles are counted on the undirected simple projection (directions
  dropped, reciprocal edges merged, self-loops removed);
* each metric is min-max scaled onto [0, 10] (all-equal maps to 0), the five
  scaled values are summed into an aggregated score in [0, 50], and nodes
  strictly above the threshold are flagged critical;
* the correlation matrix is Pearson on the raw metric vectors; a
  zero-variance metric correlates 0 with everything else.

Betweenness and closeness come from one level-synchronous BFS sweep over
batches of sources on a CSR adjacency (Brandes 2001; Kepner & Gilbert 2011):
the levels that Brandes' dependencies are accumulated over also give each
source's reached count and distance sum.  The levels are sparse: a batch
keeps a visited bitmap and, per level, only the (source, node) pairs it
first reached, with their path counts and the DAG edges into them.  A batch
is sized by bytes (``BFS_BYTES``): the first as if each source reached every
node and scanned every edge, each later one from the bytes per source that
the batch before it held, and at most twice its sources.  Each node's path
counts and dependencies add their terms in the order the frontier reached
them, and betweenness adds each node's dependencies in source order, so no
result depends on the batch sizes.  Betweenness matches per-source Brandes
up to summation order; closeness and the integer metrics are exact.
Triangles are counted as degree-ordered wedges (Chiba & Nishizeki 1985), in
chunks of ``WEDGE_BYTES``.  Critical paths are enumerated as arrays too, one
path length at a time.
"""

from __future__ import annotations

import csv
import io
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import (
    ENTITY_TYPE_INDEX,
    RELATION_INDEX,
    EntityType,
    Graph,
    GraphError,
    RelationType,
    check_utf8_labels,
    line_chunks,
    run_starts,
    sorted_unique,
)

METRIC_NAMES = ("in_degree", "out_degree", "betweenness", "closeness", "triangle_count")


def degree_centrality(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (in_degree, out_degree) as exact triple counts per direction."""
    n = graph.num_entities
    t = graph.triples_array()
    return np.bincount(t[:, 2], minlength=n), np.bincount(t[:, 0], minlength=n)


#: Bytes that one batch of the BFS sweep may hold: its visited bitmap (a byte
#: per (source, node) pair) and its levels.  Sets the sources per batch.
BFS_BYTES = 1 << 22

#: Bytes a batch holds per pair reached, per DAG edge and per edge scanned in
#: its widest level, at its most (measured with tracemalloc): a pair's key,
#: sigma and delta and the words that sort its delta into source order; an
#: edge's two positions and its weight; a scanned edge's parent, CSR slot,
#: child key and masks.
_PAIR_BYTES, _EDGE_BYTES, _SCAN_BYTES = 56, 24, 40

_Level = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _batch_sources(left: int, bytes_per_source: float, previous: int) -> int:
    """Sources in the next BFS batch: as many of the ``left`` as BFS_BYTES
    holds at ``bytes_per_source``, and at most twice the ``previous`` batch's."""
    k = min(left, int(BFS_BYTES // bytes_per_source))
    return max(1, min(k, 2 * previous) if previous else k)


def _bfs_batch(n: int, indptr: np.ndarray, succ: np.ndarray, seen: np.ndarray, first: int,
               k: int) -> tuple[list[_Level], int]:
    """The levels of the BFS from sources ``first .. first + k - 1``, and the
    most edges one level scanned; ``seen`` marks the keys reached."""
    outdeg = np.diff(indptr)
    keys = np.arange(k) * (n + 1) + first
    seen[keys] = True
    none = np.zeros(0, dtype=np.int64)
    levels, widest = [(keys, np.ones(k), none, none)], 0
    while True:
        base = keys // n * n
        nodes = keys - base
        deg = outdeg[nodes]
        parents = np.repeat(np.arange(keys.size), deg)
        widest = max(widest, parents.size)
        edge = np.repeat(indptr[nodes] - (np.cumsum(deg) - deg), deg)
        edge += np.arange(edge.size)
        children = np.repeat(base, deg)
        children += succ[edge]
        dag = np.flatnonzero(~seen[children])
        if not dag.size:
            return levels, widest
        # One sort of (child key, parent position) words orders the DAG edges by child and,
        # within a child, by parent, while each parent's edges stay in CSR order: sigma and
        # delta add each node's terms in the order the frontier reached them.  Keys and
        # positions are below k * n, so a word fits in 63 bits for any bitmap that fits in memory.
        shift = keys.size.bit_length()
        edges = children[dag] << shift
        edges |= parents[dag]
        edges.sort()
        parents = edges & ((1 << shift) - 1)
        edges >>= shift
        fresh = run_starts(edges)
        children = np.cumsum(fresh) - 1  # each edge's child as a position in keys
        keys = edges[fresh]
        seen[keys] = True
        sigma = np.bincount(children, weights=levels[-1][1][parents], minlength=keys.size)
        levels.append((keys, sigma, parents, children))


def _bfs_levels(graph: Graph) -> Iterator[tuple[int, list[_Level]]]:
    """Level-synchronous BFS from every node, in batches of sources.

    Yields ``(first, levels)`` per batch of the sources ``first, first + 1, ...``.
    Flat key ``r * n + v`` is node v in the BFS from ``first + r``.
    ``levels[d] = (keys, sigma, parents, children)``: the sorted keys first
    reached at depth d, their shortest-path counts, and the DAG edges into
    them, as positions in ``levels[d - 1]`` and ``levels[d]``, sorted by child
    and then by parent (``levels[0]`` holds the sources and no edges).  The
    list is emptied when the next batch is asked for.

    The first batch is sized by the bytes a source could hold at most; each
    later one by the bytes per source that the batch before it held, and
    holds at most twice its sources.
    """
    n = graph.num_entities
    t = graph.triples_array()
    succ = sorted_unique(t[:, 0] * n + t[:, 2])  # CSR; self-loops are never on a shortest path
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(succ // n, minlength=n), out=indptr[1:])
    succ %= n
    seen = np.zeros(0, dtype=bool)  # reused, and cleared after each batch
    # at most, a source reaches every node, and scans every edge in one level onto its DAG
    first, k, per_source = 0, 0, (1 + _PAIR_BYTES) * n + (_EDGE_BYTES + _SCAN_BYTES) * succ.size
    while first < n:
        k = _batch_sources(n - first, per_source, k)
        if seen.size < k * n:
            seen = np.zeros(k * n, dtype=bool)
        levels, widest = _bfs_batch(n, indptr, succ, seen, first, k)
        yield first, levels
        pairs = edges = 0
        for keys, _, parents, _ in levels:
            seen[keys] = False
            pairs, edges = pairs + keys.size, edges + parents.size
        levels.clear()  # the next batch is built without this one's arrays
        per_source = (k * n + _PAIR_BYTES * pairs + _EDGE_BYTES * edges + _SCAN_BYTES * widest) / k
        first += k


def _add_batch(acc: np.ndarray, reached: np.ndarray, total: np.ndarray, first: int, levels: list[_Level]) -> None:
    """Add one batch's pair dependencies to ``acc``, and its reached counts
    and distance sums to ``reached`` and ``total``."""
    n = acc.size
    deltas = [np.zeros(levels[-1][0].size)]
    for (_, sigma, parents, children), (_, up_sigma, _, _) in zip(levels[:0:-1], levels[-2::-1]):
        weight = up_sigma[parents] / sigma[children] * (1.0 + deltas[-1][children])
        deltas.append(np.bincount(parents, weights=weight, minlength=up_sigma.size))
    # sources excluded; sorted keys add each node's dependencies in source order
    keys = np.concatenate([level[0] for level in levels[1:]])
    shift = keys.size.bit_length()
    keys <<= shift
    keys |= np.arange(keys.size)
    keys.sort(kind="stable")  # timsort: the words come in one sorted run per level
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    delta = np.concatenate(deltas[-2::-1])
    del deltas  # frees the per-level copies before the gather below
    np.add.at(acc, keys - keys // n * n, delta[order])
    for depth, (fresh, _, _, _) in enumerate(levels[1:], start=1):
        counts = np.bincount(fresh // n)  # fresh nodes per source of the batch
        reached[first:first + counts.size] += counts
        total[first:first + counts.size] += depth * counts


def shortest_path_centralities(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(betweenness, closeness) from one BFS sweep over every source.

    Betweenness is Brandes' accumulation of pair dependencies over each
    batch's levels; closeness counts, per source, the nodes first reached at
    each depth of the same levels.  :class:`GraphError` if a node is reached
    by 2^1024 or more shortest paths from one source: its path count
    overflows float64, and the dependencies divided by it would be NaN.
    """
    n = graph.num_entities
    acc = np.zeros(n)
    reached, total = np.zeros((2, n), dtype=np.int64)
    for first, levels in _bfs_levels(graph):
        for keys, sigma, _, _ in levels[1:]:
            if sigma.max() == np.inf:  # sums of positive counts are never NaN
                source, node = divmod(int(keys[np.argmax(sigma)]), n)
                raise GraphError(f"{graph.labels[node]!r} is reached by 2^1024 or more shortest paths from "
                                 f"{graph.labels[first + source]!r}: betweenness cannot be computed in float64")
        if len(levels) > 1:
            _add_batch(acc, reached, total, first, levels)
    hit = reached > 0
    return acc, np.where(hit, (reached / np.where(hit, total, 1)) * (reached / max(n - 1, 1)), 0.0)


def betweenness(graph: Graph) -> np.ndarray:
    """Exact directed betweenness, endpoints excluded, unnormalized."""
    return shortest_path_centralities(graph)[0]


def closeness(graph: Graph) -> np.ndarray:
    """Wasserman-Faust closeness over outgoing shortest-path distances."""
    return shortest_path_centralities(graph)[1]


#: Bytes of one int64 array over a chunk of wedges; sets the wedges per chunk.
WEDGE_BYTES = 1 << 18


def triangle_count(graph: Graph) -> np.ndarray:
    """Per-node triangle counts on the undirected simple projection.

    Nodes are ranked by (degree, id) and each edge is oriented from its
    lower- to its higher-ranked end, so each triangle is one wedge u -> v -> w
    whose closing edge u -> w is also oriented (Chiba & Nishizeki 1985).  The
    wedges are listed and looked up ``WEDGE_BYTES // 8`` at a time.
    """
    n = graph.num_entities
    t = graph.triples_array()
    s, o = t[:, 0], t[:, 2]
    edges = sorted_unique((np.minimum(s, o) * n + np.maximum(s, o))[s != o])
    ends = np.stack([edges // n, edges % n])
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(np.bincount(ends.ravel(), minlength=n), kind="stable")] = np.arange(n)
    ends = rank[ends]
    keys = np.sort(ends.min(axis=0) * n + ends.max(axis=0))  # oriented, by rank: sorted, their own CSR
    tails, heads = keys // n, keys % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    fan = indptr[heads + 1] - indptr[heads]  # per oriented edge, the wedges it starts
    last = np.cumsum(fan)
    begin = last - fan
    total = int(last[-1]) if last.size else 0
    counts = np.zeros(n, dtype=np.int64)
    size = max(1, WEDGE_BYTES // 8)
    for lo in range(0, total, size):
        hi = min(lo + size, total)
        a, b = np.searchsorted(last, [lo, hi - 1], side="right")  # the edges that start wedges lo .. hi - 1
        edge = np.repeat(np.arange(a, b + 1), fan[a:b + 1])[lo - begin[a]:hi - begin[a]]
        u, v = tails[edge], heads[edge]
        w = heads[indptr[v] + np.arange(lo, hi) - begin[edge]]
        closing = u * n + w
        hit = keys[np.minimum(np.searchsorted(keys, closing), keys.size - 1)] == closing
        counts += np.bincount(np.concatenate([u[hit], v[hit], w[hit]]), minlength=n)
    return counts[rank]


def normalize(values: np.ndarray) -> np.ndarray:
    """Min-max scale onto [0, 10]; a constant or empty vector maps to 0s."""
    values = np.asarray(values, dtype=float)
    vmin, vmax = (values.min(), values.max()) if values.size else (0.0, 0.0)
    if vmax == vmin:
        return np.zeros_like(values)
    return (values - vmin) / (vmax - vmin) * 10.0


def _pearson_matrix(raw: dict[str, np.ndarray]) -> np.ndarray:
    x = np.vstack([np.asarray(raw[m], dtype=float) for m in METRIC_NAMES])
    xc = x - x.mean(axis=1, keepdims=True)
    norms = np.sqrt((xc**2).sum(axis=1))
    k = len(METRIC_NAMES)
    corr = np.eye(k)
    for i in range(k):
        for j in range(i + 1, k):
            if norms[i] > 0 and norms[j] > 0:
                c = float(xc[i] @ xc[j] / (norms[i] * norms[j]))
                c = min(1.0, max(-1.0, c))
            else:
                c = 0.0
            corr[i, j] = corr[j, i] = c
    return corr


#: the characters for which csv.writer might quote a cell (",", '"' and line breaks)
_CSV_QUOTED = re.compile('[,"\r\n]')
#: csv's default field limit, in characters: ``export`` reads a report's cells under it
_CSV_FIELD_LIMIT = 131_072


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one cell of a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _formatted(values: np.ndarray, spec: str) -> list[str]:
    """``format(v, spec) + ","`` for each of ``values``, formatted once per distinct float64 bit pattern."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    cells = np.array([format(v, spec) + "," for v in bits.view(np.float64).tolist()], dtype=object)
    return cells[inverse].tolist()


@dataclass
class CriticalityReport:
    labels: list[str]
    raw: dict[str, np.ndarray]
    normalized: dict[str, np.ndarray]
    aggregated: np.ndarray
    is_critical: np.ndarray
    threshold: float
    correlation: np.ndarray | None
    metadata: dict[str, str]

    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    def to_csv(self, path: str | Path) -> None:
        """Write one row per node: its label, the raw metrics (``%.6g``), the
        normalized metrics and the aggregated score (``%.6f``), and the flag.

        The file is built column by column: each metric column is formatted
        once per distinct value, each cell with the comma that follows it,
        and the rows are written ``CHUNK_ROWS`` at a time by
        :func:`~chainlens.graph.line_chunks`.  A label is quoted as
        ``csv.writer`` quotes it under ``QUOTE_MINIMAL``.  Raises
        :class:`GraphError` for a label that UTF-8 cannot encode or that is
        longer than ``_CSV_FIELD_LIMIT`` characters, before ``path`` is opened.
        """
        labels = self.labels
        check_utf8_labels(labels, "a criticality CSV")
        if len("".join(labels)) > _CSV_FIELD_LIMIT:
            for label in labels:
                if len(label) > _CSV_FIELD_LIMIT:
                    raise GraphError(f"label {label[:40]!r}... of {len(label):,} characters cannot be written to a "
                                     f"criticality CSV: csv reads no cell longer than {_CSV_FIELD_LIMIT:,}")
        if _CSV_QUOTED.search("".join(labels)):
            labels = [_csv_cell(label) if _CSV_QUOTED.search(label) else label for label in labels]
        columns = [labels, ",", *(_formatted(self.raw[m], ".6g") for m in METRIC_NAMES),
                   *(_formatted(self.normalized[m], ".6f") for m in METRIC_NAMES), _formatted(self.aggregated, ".6f"),
                   np.where(np.asarray(self.is_critical, dtype=bool), "1\n", "0\n").tolist()]
        header = ["node", *METRIC_NAMES, *(f"norm_{m}" for m in METRIC_NAMES), "aggregated_score", "is_critical"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(line_chunks(len(labels), *columns))

    def summary_text(self) -> str:
        lines = [
            f"nodes: {self.num_nodes}",
            f"threshold: {self.threshold:g}",
            f"critical: {int(self.is_critical.sum())}",
        ]
        for m in METRIC_NAMES + ("aggregated_score",):
            vals = self.aggregated if m == "aggregated_score" else self.raw[m]
            order = np.argsort(-np.asarray(vals, dtype=float), kind="stable")[:5]
            tops = ", ".join(f"{self.labels[i]}={float(vals[i]):g}" for i in order)
            lines.append(f"top {m}: {tops}")
        if self.correlation is not None:
            lines.append("correlation (" + ", ".join(METRIC_NAMES) + "):")
            for row in self.correlation:
                lines.append("  " + " ".join(f"{v:+.4f}" for v in row))
        for key in sorted(self.metadata):
            lines.append(f"note {key}: {self.metadata[key]}")
        return "\n".join(lines) + "\n"


_CONVENTIONS = {
    "betweenness": "directed simple graph, endpoints excluded, unnormalized",
    "closeness": "outgoing distances, Wasserman-Faust corrected, 0 for sinks",
    "triangle_count": "undirected simple projection",
    "normalization": "per-metric min-max onto [0,10]; constant metrics map to 0",
    "correlation": "Pearson on raw metrics; zero-variance metrics correlate 0",
    "flagging": "aggregated score strictly greater than threshold",
}


def criticality(graph: Graph, threshold: float = 10.0) -> CriticalityReport:
    """Score every node: five normalized centralities summed, flagged above threshold.

    The caller is expected to pass the supplier/supplies_to projection, but
    any graph works.  Graphs with fewer than two nodes get no correlation
    matrix (it is undefined there).
    """
    in_deg, out_deg = degree_centrality(graph)
    between, close = shortest_path_centralities(graph)
    raw = {
        "in_degree": in_deg.astype(float),
        "out_degree": out_deg.astype(float),
        "betweenness": between,
        "closeness": close,
        "triangle_count": triangle_count(graph).astype(float),
    }
    normalized = {m: normalize(raw[m]) for m in METRIC_NAMES}
    aggregated = np.sum([normalized[m] for m in METRIC_NAMES], axis=0)
    correlation = _pearson_matrix(raw) if graph.num_entities >= 2 else None
    return CriticalityReport(
        labels=list(graph.labels),
        raw=raw,
        normalized=normalized,
        aggregated=np.asarray(aggregated, dtype=float),
        is_critical=np.asarray(aggregated, dtype=float) > threshold,
        threshold=threshold,
        correlation=correlation,
        metadata=dict(_CONVENTIONS),
    )


def scope_suppliers(graph: Graph) -> np.ndarray:
    """Distinct (business scope, supplier) id pairs joined by related_to in
    either direction, sorted by scope then supplier."""
    t = graph.triples_array()
    t = t[t[:, 1] == RELATION_INDEX[RelationType.RELATED_TO]]
    pairs = np.concatenate([t[:, [0, 2]], t[:, [2, 0]]])
    codes = graph.type_codes()
    pairs = pairs[(codes[pairs[:, 0]] == ENTITY_TYPE_INDEX[EntityType.BUSINESS_SCOPE])
                  & (codes[pairs[:, 1]] == ENTITY_TYPE_INDEX[EntityType.SUPPLIER])]
    n = max(graph.num_entities, 1)
    keys = sorted_unique(pairs[:, 0] * n + pairs[:, 1])  # one int64 key per pair sorts as the pairs do
    return np.column_stack([keys // n, keys % n])


def sole_supplier_scopes(graph: Graph) -> list[tuple[int, int]]:
    """Business scopes related to exactly one supplier, with that supplier.

    Incidence is checked in both directions of related_to; sorted by scope id.
    """
    pairs = scope_suppliers(graph)
    _, first, count = np.unique(pairs[:, 0], return_index=True, return_counts=True)
    return [tuple(p) for p in pairs[first[count == 1]].tolist()]


def _critical_path_rows(graph: Graph, report: CriticalityReport, max_depth: int) -> Iterator[np.ndarray]:
    """The simple supplies_to chains into the hub with 1..max_depth edges that
    contain a critical supplier: one array per length, a path per row, listed
    hub-first and in no set order.  All simple paths of one length are rows
    of one array, grown by a column of predecessors for the next length."""
    if report.num_nodes != graph.num_entities:
        raise ValueError("report does not match graph (node counts differ)")
    if graph.num_entities == 0:
        return
    hub = int(np.argmax(report.aggregated))
    t = graph.triples_array()
    t = t[(t[:, 1] == RELATION_INDEX[RelationType.SUPPLIES_TO]) & (t[:, 0] != t[:, 2])]
    preds = t[np.argsort(t[:, 2], kind="stable"), 0]  # grouped by object
    indptr = np.zeros(graph.num_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(t[:, 2], minlength=graph.num_entities), out=indptr[1:])
    flagged = np.asarray(report.is_critical, dtype=bool)

    paths, has_flag = np.array([[hub]]), flagged[[hub]]  # hub-first rows, and whether a row holds a flag
    for _ in range(max_depth):
        head = paths[:, -1]
        deg = indptr[head + 1] - indptr[head]
        rows = np.repeat(np.arange(len(paths)), deg)
        edge = np.arange(rows.size) + np.repeat(indptr[head] - (np.cumsum(deg) - deg), deg)
        grown, new = paths[rows], preds[edge]
        simple = (grown != new[:, None]).all(axis=1)
        paths = np.column_stack([grown[simple], new[simple]])
        has_flag = has_flag[rows[simple]] | flagged[new[simple]]
        if not len(paths):
            return
        yield paths[has_flag]


def critical_paths(
    graph: Graph, report: CriticalityReport, max_depth: int = 3
) -> list[list[int]]:
    """Simple supplies_to chains into the hub that contain a critical supplier.

    The hub is the maximum-aggregated-score node (smallest id on ties).
    Paths are listed source-to-hub, with 1..max_depth edges, in deterministic
    (length, node-sequence) order.
    """
    found: list[list[int]] = []
    for paths in _critical_path_rows(graph, report, max_depth):
        paths = paths[:, ::-1]  # source-to-hub
        found += paths[np.lexsort(paths.T[::-1])].tolist()
    return found


def count_critical_paths(graph: Graph, report: CriticalityReport, max_depth: int = 3) -> int:
    """``len(critical_paths(graph, report, max_depth))``, without building the paths."""
    return sum(len(paths) for paths in _critical_path_rows(graph, report, max_depth))

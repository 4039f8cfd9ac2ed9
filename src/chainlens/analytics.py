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
source's reached count and distance sum.  Betweenness matches per-source
Brandes up to summation order; closeness and the integer metrics are exact.
Critical paths are enumerated as arrays too, one path length at a time.
"""

from __future__ import annotations

import csv
import io
import re
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .graph import ENTITY_TYPE_INDEX, RELATION_INDEX, EntityType, Graph, RelationType

METRIC_NAMES = ("in_degree", "out_degree", "betweenness", "closeness", "triangle_count")


def degree_centrality(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-node (in_degree, out_degree) as exact triple counts per direction."""
    n = graph.num_entities
    t = graph.triples_array()
    return np.bincount(t[:, 2], minlength=n), np.bincount(t[:, 0], minlength=n)


#: Bytes of one (k, n) float64 array of a BFS batch; sets k, the sources per batch.
BFS_BYTES = 1 << 22


def _bfs_levels(graph: Graph):
    """Level-synchronous BFS from every node, k sources at a time.

    Yields ``(first, sigma, levels)`` per batch.  Flat key ``r * n + v`` is node
    v in the BFS from ``first + r``; sigma (reused by the next batch) counts
    shortest paths by key; levels[d-1] = ``(fresh, parents, children)`` holds the
    sorted keys first reached at depth d and the DAG edges into them (last empty).
    """
    n = graph.num_entities
    t = graph.triples_array()
    keys = np.unique(t[:, 0] * n + t[:, 2])  # CSR; self-loops are never on a shortest path
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    k = max(1, min(n, BFS_BYTES // (8 * max(n, 1))))
    dist = np.full(k * n, -1, dtype=np.int64)
    sigma = np.zeros(k * n)
    for first in range(0, n, k):
        sources = np.arange(min(k, n - first)) * (n + 1) + first
        dist[sources], sigma[sources] = 0, 1.0
        frontier, depth, levels = sources, 0, []
        while frontier.size:
            depth += 1
            starts = indptr[frontier % n]
            deg = indptr[frontier % n + 1] - starts
            parents = np.repeat(frontier, deg)
            edge = np.arange(parents.size) + np.repeat(starts - (np.cumsum(deg) - deg), deg)
            children = parents - parents % n + keys[edge] % n
            fresh = children[dist[children] < 0]
            dist[fresh] = depth
            on_dag = dist[children] == depth
            parents, children = parents[on_dag], children[on_dag]
            np.add.at(sigma, children, sigma[parents])
            fresh.sort()  # a copy of children's keys; sorted, repeats are adjacent
            frontier = fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))] if fresh.size else fresh
            levels.append((frontier, parents, children))
        yield first, sigma, levels
        touched = np.concatenate([sources] + [fresh for fresh, _, _ in levels])
        dist[touched], sigma[touched] = -1, 0.0


def shortest_path_centralities(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(betweenness, closeness) from one BFS sweep over every source.

    Betweenness is Brandes' accumulation of pair dependencies over each
    batch's levels; closeness counts, per source, the nodes first reached at
    each depth of the same levels.
    """
    n = graph.num_entities
    acc, delta = np.zeros(n), None
    reached, total = np.zeros((2, n), dtype=np.int64)
    for first, sigma, levels in _bfs_levels(graph):
        delta = np.zeros_like(sigma) if delta is None else delta
        for _, parents, children in reversed(levels):
            np.add.at(delta, parents, sigma[parents] / sigma[children] * (1.0 + delta[children]))
        # sources excluded; sorted keys add each node's dependencies in source order
        keys = np.sort(np.concatenate([fresh for fresh, _, _ in levels]))
        np.add.at(acc, keys % n, delta[keys])
        delta[np.concatenate([parents for _, parents, _ in levels])] = 0.0
        for depth, (fresh, _, _) in enumerate(levels, start=1):
            counts = np.bincount(fresh // n)  # fresh nodes per source of the batch
            reached[first:first + counts.size] += counts
            total[first:first + counts.size] += depth * counts
    hit = reached > 0
    return acc, np.where(hit, (reached / np.where(hit, total, 1)) * (reached / max(n - 1, 1)), 0.0)


def betweenness(graph: Graph) -> np.ndarray:
    """Exact directed betweenness, endpoints excluded, unnormalized."""
    return shortest_path_centralities(graph)[0]


def closeness(graph: Graph) -> np.ndarray:
    """Wasserman-Faust closeness over outgoing shortest-path distances."""
    return shortest_path_centralities(graph)[1]


def triangle_count(graph: Graph) -> np.ndarray:
    """Per-node triangle counts on the undirected simple projection."""
    n = graph.num_entities
    nbrs: list[set[int]] = [set() for _ in range(n)]
    t = graph.triples_array()
    for s, o in t[t[:, 0] != t[:, 2]][:, [0, 2]].tolist():
        nbrs[s].add(o)
        nbrs[o].add(s)
    counts = np.zeros(n, dtype=np.int64)
    for v in range(n):
        nv = nbrs[v]
        # each triangle at v counted twice over ordered neighbor pairs
        c = sum(len(nv & nbrs[u]) for u in nv)
        counts[v] = c // 2
    return counts


def normalize(values: np.ndarray) -> np.ndarray:
    """Min-max scale onto [0, 10]; a constant vector maps to 0."""
    values = np.asarray(values, dtype=float)
    vmin, vmax = values.min(), values.max()
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


#: Rows per written piece of a criticality CSV; bounds the text held at once.
CHUNK_ROWS = 4096

#: the characters for which csv.writer might quote a cell (",", '"' and line breaks)
_CSV_QUOTED = re.compile('[,"\r\n]')


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one cell of a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _formatted(values: np.ndarray, spec: str) -> Iterator[str]:
    """``format(v, spec)`` for each of ``values``, formatted once per distinct float64 bit pattern."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    cells = [format(v, spec) for v in bits.view(np.float64).tolist()]
    return map(cells.__getitem__, inverse.tolist())


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
        once per distinct value, the cells of a row are joined with ``","``,
        and the rows are written ``CHUNK_ROWS`` at a time.  A label is quoted
        as ``csv.writer`` quotes it under ``QUOTE_MINIMAL``.
        """
        labels = self.labels
        if _CSV_QUOTED.search("".join(labels)):
            labels = [_csv_cell(label) if _CSV_QUOTED.search(label) else label for label in labels]
        columns = [labels]
        columns += [_formatted(self.raw[m], ".6g") for m in METRIC_NAMES]
        columns += [_formatted(self.normalized[m], ".6f") for m in METRIC_NAMES]
        columns.append(_formatted(self.aggregated, ".6f"))
        columns.append(map(("0", "1").__getitem__, np.asarray(self.is_critical, dtype=bool).tolist()))
        rows = map(",".join, zip(*columns, strict=True))
        header = ["node", *METRIC_NAMES, *(f"norm_{m}" for m in METRIC_NAMES), "aggregated_score", "is_critical"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for _ in range(0, len(labels), CHUNK_ROWS):
                fh.write("\n".join(islice(rows, CHUNK_ROWS)) + "\n")

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
    aggregated = np.sum([normalized[m] for m in METRIC_NAMES], axis=0) if graph.num_entities else np.zeros(0)
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
    keys = np.unique(pairs[:, 0] * n + pairs[:, 1])  # one int64 key per pair sorts as the pairs do
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

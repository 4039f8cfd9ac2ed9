"""Analytics as they were before the shared sweep and the array path expansion.

``two_sweep_centralities`` runs betweenness and closeness each on its own
level-synchronous BFS (``unique_frontier_bfs_levels``, which keeps dense
(k, n) distances and path counts and deduplicates each frontier with
``np.unique``), counting closeness with ``np.add.at``; the one sweep must
give their bits, and its sparse levels must convert to these levels.
``critical_paths`` is the recursive depth-first enumeration that the array
version must reproduce list for list.
``write_criticality_csv`` is ``CriticalityReport.to_csv`` as it was, one
row at a time through ``csv.writer``; the column-wise writer must write
its bytes.
"""

import csv
from collections import defaultdict

import numpy as np

from chainlens.analytics import METRIC_NAMES
from chainlens.graph import RELATION_INDEX, RelationType


def unique_frontier_bfs_levels(graph, sizes=None):
    """Yields ``(first, sigma, levels)`` per batch of ``sizes[i]`` sources (by
    default 2**22 // (8 n) each), with sigma dense over the batch's keys
    ``r * n + v`` and levels[d-1] = ``(fresh, parents, children)``: the sorted
    keys first reached at depth d and the DAG edges into them as keys, in the
    order the frontier expands (the last level empty)."""
    n = graph.num_entities
    t = graph.triples_array()
    keys = np.unique(t[:, 0] * n + t[:, 2])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    if sizes is None:
        k = max(1, min(n, (1 << 22) // (8 * max(n, 1))))
        sizes = [min(k, n - first) for first in range(0, n, k)]
    dist = np.full(max(sizes, default=0) * n, -1, dtype=np.int64)
    sigma = np.zeros(dist.size)
    first = 0
    for size in sizes:
        sources = np.arange(size) * (n + 1) + first
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
            frontier = np.unique(fresh)
            levels.append((frontier, parents, children))
        yield first, sigma, levels
        touched = np.concatenate([sources] + [fresh for fresh, _, _ in levels])
        dist[touched], sigma[touched] = -1, 0.0
        first += size


def two_sweep_centralities(graph):
    """(betweenness, closeness), each from a BFS sweep of its own."""
    n = graph.num_entities
    acc, delta = np.zeros(n), None
    for _, sigma, levels in unique_frontier_bfs_levels(graph):
        delta = np.zeros_like(sigma) if delta is None else delta
        for _, parents, children in reversed(levels):
            np.add.at(delta, parents, sigma[parents] / sigma[children] * (1.0 + delta[children]))
        reached = np.sort(np.concatenate([fresh for fresh, _, _ in levels]))
        np.add.at(acc, reached % n, delta[reached])
        delta[np.concatenate([parents for _, parents, _ in levels])] = 0.0

    reached, total = np.zeros((2, n), dtype=np.int64)
    for first, _, levels in unique_frontier_bfs_levels(graph):
        for depth, (fresh, _, _) in enumerate(levels, start=1):
            np.add.at(reached, first + fresh // n, 1)
            np.add.at(total, first + fresh // n, depth)
    hit = reached > 0
    return acc, np.where(hit, (reached / np.where(hit, total, 1)) * (reached / max(n - 1, 1)), 0.0)


def critical_paths(graph, report, max_depth=3):
    """Simple supplies_to chains into the hub that contain a critical supplier,
    source-to-hub, with 1..max_depth edges, in (length, node-sequence) order."""
    if report.num_nodes != graph.num_entities:
        raise ValueError("report does not match graph (node counts differ)")
    if graph.num_entities == 0:
        return []
    hub = int(np.argmax(report.aggregated))
    preds: dict[int, list[int]] = defaultdict(list)
    t = graph.triples_array()
    t = t[(t[:, 1] == RELATION_INDEX[RelationType.SUPPLIES_TO]) & (t[:, 0] != t[:, 2])]
    for s, o in t[:, [0, 2]].tolist():
        preds[o].append(s)
    for lst in preds.values():
        lst.sort()

    flagged = report.is_critical
    found: list[list[int]] = []

    def extend(path: list[int]) -> None:
        # path is hub-first; emit reversed copies that contain a flag
        if len(path) > 1 and any(flagged[v] for v in path):
            found.append(list(reversed(path)))
        if len(path) > max_depth:
            return
        head = path[-1]
        for p in preds.get(head, ()):  # ascending ids keep the order stable
            if p not in path:
                path.append(p)
                extend(path)
                path.pop()

    extend([hub])
    found.sort(key=lambda p: (len(p), p))
    return found


def write_criticality_csv(report, path):
    """``report.to_csv(path)``, built cell by cell and written row by row."""
    cols = ["node"] + list(METRIC_NAMES) + [f"norm_{m}" for m in METRIC_NAMES]
    cols += ["aggregated_score", "is_critical"]
    raw = [np.asarray(report.raw[m]).tolist() for m in METRIC_NAMES]
    normalized = [np.asarray(report.normalized[m]).tolist() for m in METRIC_NAMES]
    aggregated, critical = np.asarray(report.aggregated).tolist(), np.asarray(report.is_critical).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for i, label in enumerate(report.labels):
            cells = [label]
            cells += [f"{col[i]:.6g}" for col in raw]
            cells += [f"{col[i]:.6f}" for col in normalized]
            cells.append(f"{aggregated[i]:.6f}")
            cells.append("1" if critical[i] else "0")
            writer.writerow(cells)

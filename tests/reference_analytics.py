"""Analytics as they were before the shared sweep and the array path expansion.

``two_sweep_centralities`` runs betweenness and closeness each on its own
level-synchronous BFS (``unique_frontier_bfs_levels``, which deduplicates
each frontier with ``np.unique``), counting closeness with ``np.add.at``; the
one sweep must give their bits.
``critical_paths`` is the recursive depth-first enumeration that the array
version must reproduce list for list.
"""

from collections import defaultdict

import numpy as np

from chainlens import analytics
from chainlens.graph import RELATION_INDEX, RelationType


def unique_frontier_bfs_levels(graph):
    n = graph.num_entities
    t = graph.triples_array()
    keys = np.unique(t[:, 0] * n + t[:, 2])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    k = max(1, min(n, analytics.BFS_BYTES // (8 * max(n, 1))))
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
            frontier = np.unique(fresh)
            levels.append((frontier, parents, children))
        yield first, sigma, levels
        touched = np.concatenate([sources] + [fresh for fresh, _, _ in levels])
        dist[touched], sigma[touched] = -1, 0.0


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

"""Reference implementations of the multilevel partitioner's inner loops.

These are the original per-vertex loops over NumPy scalars that
``repro.ordering`` shipped before its list-based rewrite.  They are kept
verbatim as the oracle the equivalence tests compare against: the
library versions must return byte-identical arrays on every input.
Do not optimise them.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.ordering.coarsen import LevelGraph


def _gains(graph: LevelGraph, side: np.ndarray) -> np.ndarray:
    """Gain of moving each vertex: external minus internal edge weight."""
    n = graph.n
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    external = side[rows] != side[graph.indices]
    gain = np.zeros(n, dtype=np.int64)
    np.add.at(gain, rows, np.where(external, graph.eweights, -graph.eweights))
    return gain


def heavy_edge_matching(
    graph: LevelGraph, rng: np.random.Generator
) -> np.ndarray:
    """Greedy heavy-edge matching.

    Visits vertices in random order; each unmatched vertex pairs with its
    unmatched neighbor of maximum edge weight (ties to the first seen).
    Returns ``match`` with ``match[v]`` the partner (or ``v`` itself).
    """
    n = graph.n
    match = np.full(n, -1, dtype=np.int64)
    indptr, indices, ew = graph.indptr, graph.indices, graph.eweights
    for v in rng.permutation(n):
        if match[v] >= 0:
            continue
        best = -1
        best_w = -1
        for t in range(indptr[v], indptr[v + 1]):
            u = indices[t]
            if u != v and match[u] < 0 and ew[t] > best_w:
                best_w = ew[t]
                best = u
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return match


def _bfs_grow(graph: LevelGraph, start: int) -> np.ndarray:
    """Grow side 0 by BFS from ``start`` until half the vertex weight."""
    n = graph.n
    side = np.ones(n, dtype=np.int8)
    target = int(graph.vweights.sum()) // 2
    seen = np.zeros(n, dtype=bool)
    queue = [start]
    seen[start] = True
    acc = 0
    head = 0
    order: list[int] = []
    while head < len(queue):
        v = queue[head]
        head += 1
        order.append(v)
        for t in range(graph.indptr[v], graph.indptr[v + 1]):
            u = graph.indices[t]
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    # If the graph is disconnected the BFS order misses vertices; append
    # them so the split still covers everything.
    if len(order) < n:
        order.extend(np.flatnonzero(~seen).tolist())
    for v in order:
        if acc >= target:
            break
        side[v] = 0
        acc += int(graph.vweights[v])
    return side


def fm_refine(
    graph: LevelGraph,
    side: np.ndarray,
    *,
    balance_tol: float = 0.1,
    max_passes: int = 4,
) -> np.ndarray:
    """Refine ``side`` in place-sized copies; returns the improved bisection.

    Parameters
    ----------
    graph:
        The level graph being partitioned.
    side:
        0/1 assignment per vertex.
    balance_tol:
        Each side's vertex weight must stay within
        ``(0.5 + balance_tol) * total``.
    max_passes:
        FM passes; stops early when a pass yields no improvement.
    """
    side = np.asarray(side, dtype=np.int8).copy()
    total = int(graph.vweights.sum())
    cap = (0.5 + balance_tol) * total
    n = graph.n
    indptr, indices, ew, vw = (
        graph.indptr,
        graph.indices,
        graph.eweights,
        graph.vweights,
    )

    for _ in range(max_passes):
        gain = _gains(graph, side)
        locked = np.zeros(n, dtype=bool)
        weight = np.array(
            [int(vw[side == 0].sum()), int(vw[side == 1].sum())],
            dtype=np.int64,
        )
        heap: list[tuple[int, int, int]] = [
            (-int(gain[v]), v, int(gain[v])) for v in range(n)
        ]
        heapq.heapify(heap)
        moves: list[int] = []
        cum = 0
        best_cum = 0
        best_len = 0
        while heap:
            neg_g, v, g_at_push = heapq.heappop(heap)
            if locked[v] or gain[v] != g_at_push:
                if not locked[v]:
                    heapq.heappush(heap, (-int(gain[v]), v, int(gain[v])))
                continue
            src = side[v]
            dst = 1 - src
            if weight[dst] + vw[v] > cap:
                locked[v] = True  # cannot move this pass without imbalance
                continue
            # Commit the move.
            locked[v] = True
            side[v] = dst
            weight[src] -= vw[v]
            weight[dst] += vw[v]
            cum += gain[v]
            moves.append(v)
            if cum > best_cum:
                best_cum = cum
                best_len = len(moves)
            # Update neighbor gains incrementally.
            for t in range(indptr[v], indptr[v + 1]):
                u = indices[t]
                if locked[u]:
                    continue
                # Edge u-v was external iff side[u] != src before the move.
                if side[u] == src:
                    gain[u] += 2 * ew[t]
                else:
                    gain[u] -= 2 * ew[t]
                heapq.heappush(heap, (-int(gain[u]), int(u), int(gain[u])))
        # Roll back moves beyond the best prefix.
        for v in moves[best_len:]:
            side[v] = 1 - side[v]
        if best_cum <= 0:
            break
    return side

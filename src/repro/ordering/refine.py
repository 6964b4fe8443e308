"""Fiduccia-Mattheyses boundary refinement.

A classic FM pass: vertices move between the two sides in best-gain-first
order under a balance constraint, each vertex moves at most once per pass,
and the best prefix of the move sequence is kept.

The pass loop runs over plain Python lists rather than NumPy arrays:
bisected levels hold at most a few hundred vertices, where indexing NumPy
scalars costs more than the arithmetic it performs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from repro.obs import get_tracer
from repro.ordering.coarsen import LevelGraph


def cut_weight(graph: LevelGraph, side: np.ndarray) -> int:
    """Total weight of edges crossing the bisection (each edge once)."""
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    crossing = side[rows] != side[graph.indices]
    return int(graph.eweights[crossing].sum()) // 2


def _gains_and_cut(
    graph: LevelGraph, rows: np.ndarray, side: np.ndarray
) -> tuple[np.ndarray, int]:
    """Per-vertex move gains (external minus internal weight) and the cut.

    ``rows`` is the CSR row index of every stored edge.
    """
    external = side[rows] != side[graph.indices]
    signed = np.where(external, graph.eweights, -graph.eweights)
    # Float sums of integer weights are exact far beyond any level size.
    gain = np.bincount(rows, weights=signed, minlength=graph.n).astype(np.int64)
    return gain, int(graph.eweights[external].sum()) // 2


def fm_refine(
    graph: LevelGraph,
    side: np.ndarray,
    *,
    balance_tol: float = 0.1,
    max_passes: int = 4,
) -> np.ndarray:
    """Return an FM-refined copy of the bisection ``side``.

    Each pass repeatedly takes the unlocked vertex of maximum gain (ties
    to the smallest id) and either moves it, or locks it in place when
    the move would overfill the other side.  The pass then rolls back to
    its best prefix.

    A pass stops early once the crossing weight *settled* between locked
    vertices reaches the best cut seen in the pass.  Locked vertices do
    not move again, so no later prefix can beat that cut, and the result
    is the same as running the pass to the end.

    Parameters
    ----------
    graph:
        The level graph being partitioned.  Edge weights must be
        non-negative.
    side:
        0/1 assignment per vertex.  Not modified.
    balance_tol:
        Each side's vertex weight must stay within
        ``(0.5 + balance_tol) * total``.
    max_passes:
        FM passes; stops early when a pass yields no improvement.

    With a tracer installed, each call records an ``ordering.refine``
    span carrying ``n``, the passes run, the moves kept and whether any
    pass stopped early.
    """
    side_arr = np.asarray(side, dtype=np.int8).copy()
    n = graph.n
    total = int(graph.vweights.sum())
    cap = (0.5 + balance_tol) * total
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    ew = graph.eweights.tolist()
    vw = graph.vweights.tolist()
    side_l = side_arr.tolist()
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    passes = kept = 0
    early_stop = False

    with get_tracer().span("ordering.refine", n=n) as span:
        for _ in range(max_passes):
            passes += 1
            gain_arr, cut0 = _gains_and_cut(graph, rows, side_arr)
            gain = gain_arr.tolist()
            heap = list(zip((-gain_arr).tolist(), range(n)))
            heapify(heap)
            locked = [False] * n
            on_one = int(graph.vweights @ side_arr)
            weight = [total - on_one, on_one]
            moves: list[int] = []
            cum = best_cum = best_len = 0
            # Weight of crossing edges whose endpoints are both locked: a
            # lower bound on the cut of every later prefix of this pass.
            settled = 0
            while heap:
                if settled >= cut0 - best_cum:
                    early_stop = True
                    break
                neg_g, v = heappop(heap)
                if locked[v]:
                    continue
                g = gain[v]
                if -neg_g != g:
                    heappush(heap, (-g, v))  # stale entry: requeue current
                    continue
                locked[v] = True
                src = side_l[v]
                dst = 1 - src
                if weight[dst] + vw[v] > cap:
                    # Cannot move this pass without imbalance: lock in place.
                    for t in range(indptr[v], indptr[v + 1]):
                        u = indices[t]
                        if locked[u] and side_l[u] != src:
                            settled += ew[t]
                    continue
                side_l[v] = dst
                weight[src] -= vw[v]
                weight[dst] += vw[v]
                cum += g
                moves.append(v)
                if cum > best_cum:
                    best_cum = cum
                    best_len = len(moves)
                for t in range(indptr[v], indptr[v + 1]):
                    u = indices[t]
                    if locked[u]:
                        if side_l[u] == src:
                            settled += ew[t]
                        continue
                    # Edge u-v was external iff side[u] != src before the move.
                    if side_l[u] == src:
                        gain[u] += 2 * ew[t]
                        heappush(heap, (-gain[u], u))
                    else:
                        # u's queued entry now overstates its gain; popping
                        # it requeues the current value (stale check above).
                        gain[u] -= 2 * ew[t]
            # Roll back moves beyond the best prefix.
            for v in moves[best_len:]:
                side_l[v] = 1 - side_l[v]
            kept += best_len
            side_arr = np.array(side_l, dtype=np.int8)
            if best_cum <= 0:
                break
        span.set(passes=passes, moves=kept, early_stop=early_stop)
    return side_arr

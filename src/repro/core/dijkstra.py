"""Dijkstra's algorithm and the APSP drivers built on it.

Two implementations matching the paper's two baselines (§5.1.2):

* :func:`sssp_dijkstra` / :func:`apsp_dijkstra` — binary heap over flat
  **CSR** storage (the paper's own ``Dijkstra`` baseline, the algorithmic
  core of Johnson's algorithm).  The hot loop runs over flat contiguous
  arrays indexed by CSR offsets.
* :func:`apsp_dijkstra_adjlist` — the *BoostDijkstra* baseline: BGL-style
  ``adjacency_list`` storage (one neighbor list per vertex) with
  dict-backed *property maps* for distance and color, mirroring BGL's
  descriptor/property-map indirection.  The paper attributes Boost's
  slowdown to this storage layout versus CSR (§5.2.2); in pure Python the
  cache component of that gap is not expressible, so the measured gap is
  the indirection component only (see EXPERIMENTS.md).

Both hot loops are pure Python over native lists: NumPy per-vertex slicing
costs ~µs of dispatch per settled vertex, which at average degree 3-20
would dwarf the work itself (profiled; see the optimization guide's
"measure, don't guess").
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.result import APSPResult
from repro.graphs.graph import Graph
from repro.graphs.validation import validate_weights
from repro.obs import phase
from repro.resilience.budget import BudgetTracker, SolveBudget, as_tracker

_INF = float("inf")


def _csr_lists(graph: Graph) -> tuple[list[int], list[int], list[float]]:
    """Materialize the CSR arrays as native lists for the Python hot loop."""
    return (
        graph.indptr.tolist(),
        graph.indices.tolist(),
        graph.weights.tolist(),
    )


def _sssp_csr(
    n: int,
    indptr: list[int],
    indices: list[int],
    weights: list[float],
    source: int,
) -> list[float]:
    """Binary-heap Dijkstra over flat CSR lists (lazy deletion)."""
    dist = [_INF] * n
    dist[source] = 0.0
    done = bytearray(n)
    heap: list[tuple[float, int]] = [(0.0, source)]
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        d, v = pop(heap)
        if done[v]:
            continue
        done[v] = 1
        for t in range(indptr[v], indptr[v + 1]):
            u = indices[t]
            nd = d + weights[t]
            if nd < dist[u]:
                dist[u] = nd
                push(heap, (nd, u))
    return dist


def sssp_dijkstra(
    graph: Graph, source: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Single-source shortest paths (CSR binary-heap Dijkstra).

    Requires non-negative weights.  ``out`` may supply a reusable buffer.
    For many sources on one graph prefer :func:`apsp_dijkstra`, which
    amortizes the CSR list materialization.
    """
    indptr, indices, weights = _csr_lists(graph)
    dist = _sssp_csr(graph.n, indptr, indices, weights, source)
    if out is not None:
        out[:] = dist
        return out
    return np.asarray(dist)


def apsp_dijkstra(
    graph: Graph,
    *,
    budget: SolveBudget | BudgetTracker | float | None = None,
) -> APSPResult:
    """APSP by one Dijkstra sweep per source (CSR storage).

    ``budget`` (wall-clock / op limits) is checked once per source — the
    natural task granularity of this driver.
    """
    validate_weights(graph, require_positive=True)
    n = graph.n
    timings: dict[str, float] = {}
    tracker = as_tracker(budget, units_total=n)
    if tracker is not None:
        tracker.check_allocation(float(n) ** 2 * 8, where="dijkstra:dist")
    dist = np.empty((n, n))
    with phase(timings, "setup"):
        indptr, indices, weights = _csr_lists(graph)
    m = graph.indices.size
    with phase(timings, "solve", method="dijkstra"):
        for s in range(n):
            if tracker is not None:
                tracker.charge(2 * m, units=1, where=f"dijkstra:source {s}")
            dist[s] = _sssp_csr(n, indptr, indices, weights, s)
    return APSPResult(dist=dist, method="dijkstra", timings=timings)


def _sssp_adjlist(
    n: int,
    adj: list[list[tuple[int, float]]],
    dist_map: dict[int, float],
    color_map: dict[int, int],
    source: int,
) -> dict[int, float]:
    """BGL-flavored Dijkstra: adjacency lists + dict property maps."""
    for v in range(n):
        dist_map[v] = _INF
        color_map[v] = 0
    dist_map[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    pop = heapq.heappop
    push = heapq.heappush
    while heap:
        d, v = pop(heap)
        if color_map[v]:
            continue
        color_map[v] = 1
        for u, w in adj[v]:
            nd = d + w
            if nd < dist_map[u]:
                dist_map[u] = nd
                push(heap, (nd, u))
    return dist_map


def apsp_dijkstra_adjlist(
    graph: Graph,
    *,
    budget: SolveBudget | BudgetTracker | float | None = None,
) -> APSPResult:
    """APSP by Dijkstra over BGL-style storage (*BoostDijkstra*).

    Identical algorithm to :func:`apsp_dijkstra`; the differences are the
    per-vertex adjacency lists and the property-map indirection — exactly
    the contrast the paper draws between its Dijkstra and the Boost Graph
    Library's.
    """
    validate_weights(graph, require_positive=True)
    n = graph.n
    timings: dict[str, float] = {}
    tracker = as_tracker(budget, units_total=n)
    if tracker is not None:
        tracker.check_allocation(float(n) ** 2 * 8, where="boost-dijkstra:dist")
    dist = np.empty((n, n))
    with phase(timings, "setup"):
        adj = graph.adjacency_lists()
        dist_map: dict[int, float] = {}
        color_map: dict[int, int] = {}
    m = graph.indices.size
    with phase(timings, "solve", method="boost-dijkstra"):
        for s in range(n):
            if tracker is not None:
                tracker.charge(2 * m, units=1, where=f"boost-dijkstra:source {s}")
            row = _sssp_adjlist(n, adj, dist_map, color_map, s)
            dist[s] = [row[v] for v in range(n)]
    return APSPResult(dist=dist, method="boost-dijkstra", timings=timings)

"""Johnson's algorithm (paper §1: the ``O(n^2 log n + nm)`` alternative).

Bellman-Ford from a virtual source yields potentials ``h``; reweighting
``w'(u,v) = w(u,v) + h[u] - h[v]`` makes all weights non-negative without
changing shortest paths, after which one Dijkstra per source finishes the
job.  For graphs that are already non-negative the potentials are zero and
Johnson reduces to plain APSP-Dijkstra plus the Bellman-Ford pass — which
is why the paper benchmarks Dijkstra directly.

Note that an *undirected* negative edge is itself a negative 2-cycle, so
on this library's undirected graphs Johnson's extra generality only
triggers its cycle detection; the implementation is nevertheless complete
and exercised by tests through the reweighting path.
"""

from __future__ import annotations

import numpy as np

from repro.core.bellman_ford import sssp_bellman_ford
from repro.core.result import APSPResult
from repro.graphs.graph import Graph
from repro.obs import phase


def johnson_apsp(graph: Graph) -> APSPResult:
    """APSP by Johnson's algorithm.

    Raises ``ValueError`` on negative cycles (via Bellman-Ford).
    """
    n = graph.n
    timings: dict[str, float] = {}
    with phase(timings, "potentials"):
        h = sssp_bellman_ford(graph, None)
        rows = np.repeat(np.arange(n), np.diff(graph.indptr))
        reweighted = graph.weights + h[rows] - h[graph.indices]
        # Clamp tiny negative round-off so Dijkstra's precondition holds.
        reweighted = np.maximum(reweighted, 0.0)
        gprime = graph.with_weights(reweighted)
    dist = np.empty((n, n))
    with phase(timings, "solve", method="johnson"):
        from repro.core.dijkstra import _csr_lists, _sssp_csr

        indptr, indices, weights = _csr_lists(gprime)
        for s in range(n):
            dist[s] = _sssp_csr(n, indptr, indices, weights, s)
            # Undo the reweighting: d(u,v) = d'(u,v) - h[u] + h[v].
            dist[s] += h - h[s]
    return APSPResult(
        dist=dist, method="johnson", timings=timings, meta={"potentials": h}
    )

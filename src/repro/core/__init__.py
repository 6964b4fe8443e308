"""APSP algorithms: the paper's contribution and every baseline.

* :func:`~repro.core.superfw.superfw` — the supernodal Floyd-Warshall
  (Algorithm 3), the paper's contribution;
* :func:`~repro.core.parallel_superfw.parallel_superfw` — its etree-parallel
  variant (§3.5);
* baselines: dense/blocked Floyd-Warshall, Dijkstra (CSR and Boost-style),
  Bellman-Ford, Johnson, and Δ-stepping;
* :func:`~repro.core.api.apsp` — the unified front-end.
"""

from repro.core.api import apsp
from repro.core.blocked_fw import blocked_floyd_warshall
from repro.core.bellman_ford import sssp_bellman_ford
from repro.core.delta_stepping import (
    apsp_delta_stepping,
    autotune_delta,
    sssp_delta_stepping,
)
from repro.core.dense_fw import floyd_warshall
from repro.core.dijkstra import (
    apsp_dijkstra,
    apsp_dijkstra_adjlist,
    sssp_dijkstra,
)
from repro.core.johnson import johnson_apsp
from repro.core.path_doubling import path_doubling
from repro.core.paths import PathOracle
from repro.core.result import APSPResult
from repro.core.superfw import superfw
from repro.core.parallel_superfw import SharedPlanPool, parallel_superfw

__all__ = [
    "APSPResult",
    "PathOracle",
    "SharedPlanPool",
    "path_doubling",
    "apsp",
    "apsp_delta_stepping",
    "apsp_dijkstra",
    "apsp_dijkstra_adjlist",
    "autotune_delta",
    "blocked_floyd_warshall",
    "floyd_warshall",
    "johnson_apsp",
    "parallel_superfw",
    "sssp_bellman_ford",
    "sssp_delta_stepping",
    "sssp_dijkstra",
    "superfw",
]

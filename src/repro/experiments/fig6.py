"""Fig. 6 reproduction: multithreaded APSP comparison across the suite.

* Fig. 6a (small graphs): SuperFW, SuperBFS and Dijkstra normalized to the
  **BlockedFW** baseline — the impact of sparsity exploitation.
* Fig. 6b (large graphs): SuperFW, BoostDijkstra and Δ-stepping normalized
  to the **Dijkstra** baseline — how the supernodal FW competes with the
  work-optimal method (the ``O(n^3)`` algorithms are left out, as in the
  paper).

Bars in the paper are normalized execution time with the speedup printed
on top; the runners return exactly those speedup factors.
"""

from __future__ import annotations

from typing import Any

from repro.core.blocked_fw import blocked_floyd_warshall
from repro.core.delta_stepping import apsp_delta_stepping
from repro.core.dijkstra import apsp_dijkstra, apsp_dijkstra_adjlist
from repro.core.superfw import plan_superfw, superfw
from repro.experiments.common import format_table, print_header
from repro.graphs.suite import LARGE_NAMES, SMALL_NAMES, build_suite


def run_fig6a(
    *,
    size_factor: float = 0.5,
    seed: int = 0,
    names: list[str] | None = None,
    verbose: bool = True,
) -> list[dict[str, Any]]:
    """Small graphs: speedups over BlockedFW (paper Fig. 6a).

    Returns one row per graph with solve-time speedups ``superfw_x``,
    ``superbfs_x``, ``dijkstra_x`` (values > 1 mean faster than BlockedFW),
    and ``superfw_ops_x``, BlockedFW's semiring op count over SuperFW's on
    the same graph: the work saved, independent of host load.
    """
    rows: list[dict[str, Any]] = []
    for entry, graph in build_suite(
        names or SMALL_NAMES, size_factor=size_factor, seed=seed
    ):
        blocked = blocked_floyd_warshall(graph)
        base = blocked.solve_seconds()
        plan_nd = plan_superfw(graph, ordering="nd", seed=seed)
        sfw = superfw(graph, plan=plan_nd)
        t_superfw = sfw.solve_seconds()
        plan_bfs = plan_superfw(graph, ordering="bfs")
        t_superbfs = superfw(graph, plan=plan_bfs).solve_seconds()
        t_dijkstra = apsp_dijkstra(graph).solve_seconds()
        rows.append(
            {
                "graph": entry.name,
                "n": graph.n,
                "blockedfw_s": base,
                "superfw_x": base / t_superfw,
                "superfw_ops_x": blocked.ops.total / sfw.ops.total,
                "superbfs_x": base / t_superbfs,
                "dijkstra_x": base / t_dijkstra,
            }
        )
    if verbose:
        print_header(
            f"Fig. 6a — small graphs, speedup over BlockedFW "
            f"(size_factor={size_factor})"
        )
        print(format_table(rows))
    return rows


def run_fig6b(
    *,
    size_factor: float = 0.35,
    seed: int = 0,
    names: list[str] | None = None,
    include_delta: bool = True,
    verbose: bool = True,
) -> list[dict[str, Any]]:
    """Large graphs: speedups over Dijkstra (paper Fig. 6b).

    Values > 1 mean faster than the CSR Dijkstra baseline; the paper
    reports SuperFW in the 0.2-52x band, BoostDijkstra below 1, and
    Δ-stepping well below 1.
    """
    rows: list[dict[str, Any]] = []
    for entry, graph in build_suite(
        names or LARGE_NAMES, size_factor=size_factor, seed=seed
    ):
        base = apsp_dijkstra(graph).solve_seconds()
        plan_nd = plan_superfw(graph, ordering="nd", seed=seed)
        t_superfw = superfw(graph, plan=plan_nd).solve_seconds()
        t_boost = apsp_dijkstra_adjlist(graph).solve_seconds()
        row: dict[str, Any] = {
            "graph": entry.name,
            "n": graph.n,
            "dijkstra_s": base,
            "superfw_x": base / t_superfw,
            "boostdijkstra_x": base / t_boost,
        }
        if include_delta:
            t_delta = apsp_delta_stepping(graph).solve_seconds()
            row["deltastep_x"] = base / t_delta
        rows.append(row)
    if verbose:
        print_header(
            f"Fig. 6b — large graphs, speedup over Dijkstra "
            f"(size_factor={size_factor})"
        )
        print(format_table(rows))
    return rows

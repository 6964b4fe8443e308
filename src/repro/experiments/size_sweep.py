"""Size sweep: the paper's §5.2.1 prediction, measured.

§5.2.1: *"We expect that the performance gap between BlockedFw and
SuperFw will increase with increasing problem size due to asymptotic
difference in the time-complexity, whereas performance gap between
BlockedFw and SuperBfs will remain similar for larger graphs."*

This runner sweeps one mesh family across sizes and measures both gaps;
the SuperFW speedup should grow roughly like ``n/S(n) = Θ(sqrt n)`` on a
planar family while the SuperBFS speedup stays flat.
"""

from __future__ import annotations

from typing import Any

from repro.core.blocked_fw import blocked_floyd_warshall
from repro.core.superfw import superfw
from repro.plan import analyze
from repro.experiments.common import format_table, print_header
from repro.graphs.generators import delaunay_mesh


def run_size_sweep(
    *,
    sizes: list[int] | None = None,
    seed: int = 0,
    verbose: bool = True,
) -> dict[str, Any]:
    """SuperFW and SuperBFS speedups over BlockedFW across mesh sizes."""
    sizes = sizes or [128, 256, 512, 1024]
    rows: list[dict[str, Any]] = []
    for n in sizes:
        graph = delaunay_mesh(n, seed=seed)
        base = blocked_floyd_warshall(graph).solve_seconds()
        nd_plan = analyze(graph, ordering="nd", seed=seed)
        t_nd = superfw(graph, plan=nd_plan).solve_seconds()
        bfs_plan = analyze(graph, ordering="bfs")
        t_bfs = superfw(graph, plan=bfs_plan).solve_seconds()
        rows.append(
            {
                "n": graph.n,
                "blockedfw_s": base,
                "superfw_x": base / t_nd,
                "superbfs_x": base / t_bfs,
            }
        )
    superfw_growth = rows[-1]["superfw_x"] / rows[0]["superfw_x"]
    superbfs_growth = rows[-1]["superbfs_x"] / rows[0]["superbfs_x"]
    out = {
        "rows": rows,
        "superfw_growth": superfw_growth,
        "superbfs_growth": superbfs_growth,
    }
    if verbose:
        print_header("§5.2.1 prediction — speedup over BlockedFW vs problem size")
        print(format_table(rows))
        print(
            f"\nsize {sizes[0]} -> {sizes[-1]}: SuperFW gap grew "
            f"{superfw_growth:.2f}x, SuperBFS gap grew {superbfs_growth:.2f}x "
            "(paper predicts growing vs flat)"
        )
    return out

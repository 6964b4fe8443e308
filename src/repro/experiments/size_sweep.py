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
    """SuperFW and SuperBFS speedups over BlockedFW across mesh sizes.

    Each row carries wall-clock speedups (``*_x``) and the op counts of
    BlockedFW and SuperFW; ``*_growth`` compares the last size's ratio
    to the first.  ``superfw_ops_growth``, the op-count form of
    ``superfw_growth``, is deterministic.
    """
    sizes = sizes or [128, 256, 512, 1024]
    rows: list[dict[str, Any]] = []
    for n in sizes:
        graph = delaunay_mesh(n, seed=seed)
        base = blocked_floyd_warshall(graph)
        nd = superfw(graph, plan=analyze(graph, ordering="nd", seed=seed))
        bfs = superfw(graph, plan=analyze(graph, ordering="bfs"))
        base_s = base.solve_seconds()
        rows.append(
            {
                "n": graph.n,
                "blockedfw_s": base_s,
                "superfw_x": base_s / nd.solve_seconds(),
                "superbfs_x": base_s / bfs.solve_seconds(),
                "blockedfw_ops": base.ops.total,
                "superfw_ops": nd.ops.total,
                "superfw_ops_x": base.ops.total / nd.ops.total,
            }
        )
    first, last = rows[0], rows[-1]
    out = {
        "rows": rows,
        "superfw_growth": last["superfw_x"] / first["superfw_x"],
        "superbfs_growth": last["superbfs_x"] / first["superbfs_x"],
        "superfw_ops_growth": last["superfw_ops_x"] / first["superfw_ops_x"],
    }
    if verbose:
        print_header("§5.2.1 prediction — speedup over BlockedFW vs problem size")
        print(format_table(rows))
        print(
            f"\nsize {sizes[0]} -> {sizes[-1]}: SuperFW gap grew "
            f"{out['superfw_growth']:.2f}x, SuperBFS gap grew "
            f"{out['superbfs_growth']:.2f}x "
            "(paper predicts growing vs flat)"
        )
    return out

"""Table 2 reproduction: work, depth, and concurrency.

Evaluates the analytic models of the four Table 2 rows on a family of 2-D
grids and checks the SuperFW model ``W = n^2 |S|`` / ``D = |S| log^2 n``
against the *measured* operation counts and critical-path lengths of this
implementation.  The measured/model ratios should stay bounded as ``n``
grows — that is exactly the asymptotic claim.
"""

from __future__ import annotations

from typing import Any

from repro.core.superfw import superfw

from repro.plan import analyze
from repro.experiments.common import format_table, print_header
from repro.graphs.generators import grid2d
from repro.ordering.nested_dissection import nested_dissection
from repro.parallel.workdepth import (
    TABLE2_MODELS,
    superfw_measured_depth,
    superfw_measured_work,
)


def run_table2(
    *,
    sides: list[int] | None = None,
    seed: int = 0,
    verbose: bool = True,
) -> list[dict[str, Any]]:
    """Work/depth/concurrency on grid graphs of increasing size.

    Returns one row per grid with model predictions and measured
    SuperFW work/depth plus the measured-to-model ratios.
    """
    sides = sides or [8, 12, 16, 24, 32]
    rows: list[dict[str, Any]] = []
    models = {m.name: m for m in TABLE2_MODELS}
    for side in sides:
        graph = grid2d(side, side, seed=seed)
        n, m = graph.n, graph.num_edges
        nd = nested_dissection(graph, seed=seed)
        s = max(nd.top_separator_size, 1)
        plan = analyze(graph, ordering=nd.ordering)
        result = superfw(graph, plan=plan)
        measured_work = float(result.ops.total)
        model_work = models["SuperFw"].work(n, m, s)
        measured_depth = superfw_measured_depth(plan.structure)
        model_depth = models["SuperFw"].depth(n, m, s)
        rows.append(
            {
                "n": n,
                "sep": s,
                "W_model(n^2*S)": model_work,
                "W_measured": measured_work,
                "W_ratio": measured_work / model_work,
                "D_model(S*log^2n)": model_depth,
                "D_measured": measured_depth,
                "D_ratio": measured_depth / model_depth,
                "C_measured": measured_work / max(measured_depth, 1.0),
                "blockedfw_W": models["BlockedFw"].work(n, m, s),
                "dijkstra_W": models["Dijkstra"].work(n, m, s),
            }
        )
    if verbose:
        print_header("Table 2 — work/depth/concurrency on sqrt(n) x sqrt(n) grids")
        print(format_table(rows))
        print(
            "\nstatic-work check: superfw structural work "
            f"{superfw_measured_work(plan.structure):.3g} ops "
            "(should track W_measured of the largest grid)"
        )
    return rows

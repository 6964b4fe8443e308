"""Ablations called out in DESIGN.md.

* :func:`run_ordering_ablation` — §5.2.1's decomposition of the SuperFW
  gains: ND ordering vs supernodal structure alone (BFS/natural orderings
  through the same supernodal machinery), measured in operations and
  seconds.
* :func:`run_worklaw` — §4.1's cost law ``W(n) ≈ n^2 S(n)``: sweeps grid
  sizes and fits the measured op counts against the model.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.blocked_fw import blocked_floyd_warshall
from repro.core.superfw import superfw
from repro.plan import analyze
from repro.experiments.common import format_table, print_header
from repro.graphs.generators import grid2d
from repro.graphs.suite import build_suite
from repro.ordering.nested_dissection import nested_dissection

DEFAULT_ABLATION_NAMES = ["USpowerGrid", "delaunay_n14", "c-42", "hypercube_14", "EB_16384_64"]


def run_ordering_ablation(
    *,
    size_factor: float = 0.5,
    seed: int = 0,
    names: list[str] | None = None,
    verbose: bool = True,
) -> list[dict[str, Any]]:
    """Per-graph op counts and times for ND / BFS / natural orderings.

    ``nd_x`` isolates the full SuperFW gain over BlockedFW; ``bfs_x``
    isolates what the supernodal data structure delivers *without* a
    fill-reducing ordering (the paper's SuperBFS, 1-3.9x).
    """
    rows: list[dict[str, Any]] = []
    for entry, graph in build_suite(
        names or DEFAULT_ABLATION_NAMES, size_factor=size_factor, seed=seed
    ):
        base = blocked_floyd_warshall(graph)
        row: dict[str, Any] = {
            "graph": entry.name,
            "n": graph.n,
            "blocked_ops": float(base.ops.total),
        }
        for ordering in ("nd", "bfs", "natural"):
            res = superfw(graph, ordering=ordering, seed=seed)
            row[f"{ordering}_ops"] = float(res.ops.total)
            row[f"{ordering}_x"] = base.solve_seconds() / res.solve_seconds()
        rows.append(row)
    if verbose:
        print_header("Ablation — ordering choice through the supernodal pipeline")
        print(format_table(rows))
    return rows


def run_worklaw(
    *,
    sides: list[int] | None = None,
    seed: int = 0,
    verbose: bool = True,
) -> dict[str, Any]:
    """Fit measured SuperFW work against ``n^2 S(n)`` on 2-D grids.

    Planar grids have ``S(n) = Θ(sqrt(n))``, so the model predicts
    ``W = Θ(n^2.5)``; the fitted exponent of the measured counts should
    land near 2.5 (to be contrasted with BlockedFW's exact 3.0).
    """
    sides = sides or [8, 12, 16, 24, 32, 40]
    ns: list[float] = []
    works: list[float] = []
    rows: list[dict[str, Any]] = []
    for side in sides:
        graph = grid2d(side, side, seed=seed)
        nd = nested_dissection(graph, seed=seed)
        plan = analyze(graph, ordering=nd.ordering)
        res = superfw(graph, plan=plan)
        s = max(nd.top_separator_size, 1)
        ns.append(graph.n)
        works.append(float(res.ops.total))
        rows.append(
            {
                "n": graph.n,
                "S(n)": s,
                "ops": float(res.ops.total),
                "n^2*S": graph.n**2 * s,
                "ratio": res.ops.total / (graph.n**2 * s),
            }
        )
    exponent = float(np.polyfit(np.log(ns), np.log(works), 1)[0])
    out = {"rows": rows, "fitted_exponent": exponent}
    if verbose:
        print_header("Ablation — W(n) = n^2 S(n) cost law on 2-D grids")
        print(format_table(rows))
        print(f"\nfitted W ~ n^{exponent:.2f} (model 2.5, dense FW 3.0)")
    return out

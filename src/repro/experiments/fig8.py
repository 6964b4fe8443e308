"""Fig. 8 reproduction: impact of etree parallelism on SuperFW scaling.

The paper compares SuperFW speedup at 32 cores with and without etree
parallelism and finds up to ~2x benefit, strongest on small graphs where
per-iteration work is tiny.  The same comparison is produced here by the
work-depth simulator on the router's machine model
(:data:`~repro.plan.router.DEFAULT_MACHINE`): the *with* variant
level-schedules cousin supernodes, the *without* variant runs supernodes
one after another and parallelizes only within each elimination.
"""

from __future__ import annotations

from typing import Any

from repro.plan import analyze
from repro.experiments.common import format_table, print_header
from repro.graphs.suite import build_suite
from repro.parallel.scheduler import simulate_levels, simulate_sequence
from repro.parallel.tasks import superfw_levels

DEFAULT_FIG8_NAMES = [
    "USpowerGrid",
    "delaunay_n14",
    "c-42",
    "email-Enron",
    "rgg2d_14",
    "hypercube_14",
]


def run_fig8(
    *,
    size_factor: float = 0.5,
    seed: int = 0,
    procs: int = 32,
    names: list[str] | None = None,
    verbose: bool = True,
) -> list[dict[str, Any]]:
    """Speedup at ``procs`` cores with vs without etree parallelism.

    Returns rows with both speedups and their ratio (the etree benefit);
    the paper reports ratios up to ~2x, largest on small graphs.
    """
    rows: list[dict[str, Any]] = []
    for entry, graph in build_suite(
        names or DEFAULT_FIG8_NAMES, size_factor=size_factor, seed=seed
    ):
        plan = analyze(graph, seed=seed)
        levels = superfw_levels(plan.structure)
        flat = [task for level in levels for task in level]
        t1 = simulate_sequence(flat, 1)
        t_with = simulate_levels(levels, procs)
        t_without = simulate_sequence(flat, procs)
        rows.append(
            {
                "graph": entry.name,
                "n": graph.n,
                "supernodes": plan.structure.ns,
                "speedup_etree": t1 / t_with,
                "speedup_no_etree": t1 / t_without,
                "etree_benefit": t_without / t_with,
            }
        )
    if verbose:
        print_header(
            f"Fig. 8 — etree parallelism benefit at p={procs} "
            f"(size_factor={size_factor})"
        )
        print(format_table(rows))
    return rows

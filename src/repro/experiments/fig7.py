"""Fig. 7 reproduction: strong scaling of APSP implementations.

The paper scales four large graphs from 1 to 64 threads on a 32-core
Haswell.  This host has one core, so the curves are produced by the
work-depth simulator (see DESIGN.md): each algorithm's task DAG is
extracted, priced by a :class:`~repro.plan.router.MachineModel` (SuperFW
by the router's own, :data:`~repro.plan.router.DEFAULT_MACHINE`) and
list-scheduled onto ``p`` virtual processors.  Expected shapes: SuperFW
near-linear to 32, the Dijkstra family embarrassingly parallel,
Δ-stepping flat.
"""

from __future__ import annotations

import numpy as np

from repro.core.delta_stepping import sssp_delta_stepping
from repro.plan import analyze
from repro.plan.router import MachineModel
from repro.experiments.common import format_table, print_header
from repro.graphs.suite import SCALING_NAMES, build_suite
from repro.parallel.scheduler import (
    lpt_makespan,
    simulate_levels,
    simulate_sequence,
    task_seconds,
)
from repro.parallel.tasks import (
    delta_stepping_tasks,
    sssp_family_tasks,
    superfw_levels,
)

DEFAULT_PROCS = [1, 2, 4, 8, 16, 32, 64]

#: Dijkstra-family tasks are pure-Python heap work, orders of magnitude
#: more expensive per "op" than the NumPy kernels, and each SSSP runs on
#: one processor with no dispatch of its own to pay.
SSSP_MACHINE = MachineModel(ops_per_second=1 / 1.2e-7, seconds_per_task=0.0)

#: Δ-stepping pays the same per-op cost plus one synchronization per
#: bucket round (a task of its DAG's depth).
DELTA_MACHINE = MachineModel(ops_per_second=1 / 1.2e-7, seconds_per_task=2e-4)


def _delta_rounds(graph, *, sample: int = 8, seed: int = 0) -> np.ndarray:
    """Measure bucket-round counts on a sample of sources, extrapolated.

    Δ is Meyer and Sanders' ``Θ(1/d)`` rule scaled to the weights: the
    heaviest edge over the mean degree.  The rule reads no clock, so two
    runs write the same rows (timing candidate Δs picked a different one
    from run to run).
    """
    rng = np.random.default_rng(seed)
    degree = max(2.0 * graph.num_edges / max(graph.n, 1), 1.0)
    delta = float(graph.weights.max()) / degree
    srcs = rng.choice(graph.n, size=min(sample, graph.n), replace=False)
    rounds = [sssp_delta_stepping(graph, int(s), delta)[1] for s in srcs]
    mean = float(np.mean(rounds))
    return np.full(graph.n, mean)


def run_fig7(
    *,
    size_factor: float = 0.5,
    seed: int = 0,
    procs: list[int] | None = None,
    names: list[str] | None = None,
    verbose: bool = True,
) -> dict[str, dict[str, dict[int, float]]]:
    """Simulated speedup curves for the Fig. 7 graphs.

    Returns ``{graph: {algorithm: {p: speedup}}}``.
    """
    procs = procs or DEFAULT_PROCS
    out: dict[str, dict[str, dict[int, float]]] = {}
    for entry, graph in build_suite(
        names or SCALING_NAMES, size_factor=size_factor, seed=seed
    ):
        plan = analyze(graph, seed=seed)
        fw_levels = superfw_levels(plan.structure)
        dij_tasks = sssp_family_tasks(graph)
        boost_tasks = sssp_family_tasks(graph, heap_constant=4.0)
        delta_tasks = delta_stepping_tasks(graph, _delta_rounds(graph, seed=seed))

        def curves(run) -> dict[int, float]:
            t1 = run(1)
            return {p: t1 / run(p) for p in procs}

        algo_curves = {
            "superfw": curves(lambda p: simulate_levels(fw_levels, p)),
            "dijkstra": curves(lambda p: _lpt_seconds(dij_tasks, p)),
            "boost-dijkstra": curves(lambda p: _lpt_seconds(boost_tasks, p)),
            "delta-stepping": curves(
                lambda p: simulate_sequence(delta_tasks, p, DELTA_MACHINE)
            ),
        }
        out[entry.name] = algo_curves
        if verbose:
            print_header(f"Fig. 7 — simulated strong scaling: {entry.name} (n={graph.n})")
            rows = [
                {"algorithm": algo, **{f"p={p}": s for p, s in curve.items()}}
                for algo, curve in algo_curves.items()
            ]
            print(format_table(rows))
    return out


def _lpt_seconds(tasks, p: int) -> float:
    """Rigid-task LPT schedule (each SSSP runs on one processor)."""
    return lpt_makespan([task_seconds(SSSP_MACHINE, t, 1) for t in tasks], p)

"""Work-depth (simulated PRAM) scheduling.

Converts task DAGs from :mod:`repro.parallel.tasks` into p-processor
makespans, priced by the one machine model the update router,
``ordering="auto"`` and the supernode amalgamation use
(:class:`repro.plan.router.MachineModel`).  A malleable task of ``work``
ops and ``depth`` sequential dispatches runs on ``q`` processors in
``depth · seconds_per_task + work / (ops_per_second · q)`` — Brent's
bound with a fixed cost per dispatch, the reason small supernodes stop
scaling.  Within an etree level, tasks are either list-scheduled (LPT)
when tasks outnumber processors, or granted proportional processor
shares otherwise; levels are barriers, matching the level-synchronous
executor in :mod:`repro.core.parallel_superfw`.  On one processor a
SuperFW DAG's makespan is the router's sweep price,
:func:`~repro.plan.router.sweep_seconds`, to the bit.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.tasks import SimTask
from repro.plan.router import DEFAULT_MACHINE, MachineModel


def task_seconds(model: MachineModel, task: SimTask, procs: float) -> float:
    """Runtime of one malleable task on ``procs`` processors."""
    return model.seconds(task.work, task.depth, max(procs, 1))


def lpt_makespan(durations: list[float], p: int) -> float:
    """Longest-processing-time list-scheduling makespan of rigid tasks."""
    if not durations:
        return 0.0
    p = max(1, p)
    loads = np.zeros(p)
    for d in sorted(durations, reverse=True):
        i = int(np.argmin(loads))
        loads[i] += d
    return float(loads.max())


def simulate_level(tasks: list[SimTask], p: int, model: MachineModel) -> float:
    """Makespan of one barrier-synchronized level of malleable tasks."""
    if not tasks:
        return 0.0
    p = max(1, p)
    if len(tasks) >= p:
        # Enough tasks to keep every processor busy: run each on one
        # processor and list-schedule.
        return lpt_makespan([task_seconds(model, t, 1) for t in tasks], p)
    # Fewer tasks than processors: split processors proportionally to work
    # (at least one each), then the level finishes with the slowest task.
    works = np.array([max(t.work, 1.0) for t in tasks])
    shares = np.maximum(works / works.sum() * p, 1.0)
    return max(
        task_seconds(model, t, float(q)) for t, q in zip(tasks, shares)
    )


def simulate_levels(
    levels: list[list[SimTask]], p: int, model: MachineModel = DEFAULT_MACHINE
) -> float:
    """Total makespan of a level-synchronous DAG on ``p`` processors."""
    if p <= 1:
        # One processor runs every task in turn, barriers or not.
        tasks = [t for level in levels for t in level]
        return model.seconds(
            sum(t.work for t in tasks), sum(t.depth for t in tasks)
        )
    return sum(simulate_level(level, p, model) for level in levels)


def simulate_sequence(
    tasks: list[SimTask], p: int, model: MachineModel = DEFAULT_MACHINE
) -> float:
    """Makespan when tasks run one after another, each using all ``p``.

    This is SuperFW *without* etree parallelism (Fig. 8) and Δ-stepping's
    source-sequential APSP driver: a chain of one-task levels.
    """
    return simulate_levels([[t] for t in tasks], p, model)


def speedup_curve(
    run_at_p,
    procs: list[int],
) -> dict[int, float]:
    """Evaluate ``T(1)/T(p)`` for a callable ``run_at_p(p) -> seconds``."""
    t1 = run_at_p(1)
    return {p: (t1 / run_at_p(p) if run_at_p(p) > 0 else float("inf")) for p in procs}

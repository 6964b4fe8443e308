"""Work-depth (simulated PRAM) scheduling.

Converts task DAGs from :mod:`repro.parallel.tasks` into p-processor
makespans.  The model has two machine constants, calibrated on the host:

* ``seconds_per_op`` — sustained per-scalar-operation cost of the
  min-plus kernels (the NumPy analogue of the paper's per-core Gflop/s);
* ``seconds_per_step`` — fixed latency of one sequential kernel step
  (vector-dispatch overhead; the reason small supernodes stop scaling).

A malleable task on ``q`` processors runs in
``depth * seconds_per_step + work * seconds_per_op / q`` — Brent's bound
with explicit step latency.  Within an etree level, tasks are either
list-scheduled (LPT) when tasks outnumber processors, or granted
proportional processor shares otherwise; levels are barriers, matching
the level-synchronous executor in :mod:`repro.core.parallel_superfw`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.parallel.tasks import SimTask


@dataclass(frozen=True)
class CostModel:
    """Machine constants of the simulator."""

    seconds_per_op: float
    seconds_per_step: float

    def task_time(self, task: SimTask, procs: float) -> float:
        """Runtime of one malleable task on ``procs`` processors."""
        procs = max(procs, 1.0)
        return task.depth * self.seconds_per_step + (
            task.work * self.seconds_per_op / procs
        )


def calibrate_cost_model(*, size: int = 256, repeats: int = 3) -> CostModel:
    """Measure the host's min-plus kernel constants.

    ``seconds_per_op`` comes from a dense min-plus product of
    ``size x size`` operands on the solver's own kernel; ``seconds_per_step``
    from tiny updates where dispatch latency dominates.
    """
    from repro.semiring.minplus import minplus_gemm

    rng = np.random.default_rng(0)
    a = rng.uniform(size=(size, size))
    b = rng.uniform(size=(size, size))
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        minplus_gemm(a, b)
        best = min(best, time.perf_counter() - t0)
    seconds_per_op = best / (2 * size**3)
    tiny_a = rng.uniform(size=(4, 4))
    tiny_b = rng.uniform(size=(4, 4))
    t0 = time.perf_counter()
    loops = 200
    for _ in range(loops):
        minplus_gemm(tiny_a, tiny_b)
    per_call = (time.perf_counter() - t0) / loops
    seconds_per_step = per_call / 4  # four rank-1 steps per 4x4 product
    return CostModel(seconds_per_op=seconds_per_op, seconds_per_step=seconds_per_step)


#: Default constants (midrange 2020s x86 core running NumPy) used when a
#: benchmark does not calibrate; keeps the simulator deterministic.
DEFAULT_COST_MODEL = CostModel(seconds_per_op=6.0e-10, seconds_per_step=4.0e-6)


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


def simulate_level(tasks: list[SimTask], p: int, model: CostModel) -> float:
    """Makespan of one barrier-synchronized level of malleable tasks."""
    if not tasks:
        return 0.0
    p = max(1, p)
    if len(tasks) >= p:
        # Enough tasks to keep every processor busy: run each on one
        # processor and list-schedule.
        return lpt_makespan([model.task_time(t, 1) for t in tasks], p)
    # Fewer tasks than processors: split processors proportionally to work
    # (at least one each), then the level finishes with the slowest task.
    works = np.array([max(t.work, 1.0) for t in tasks])
    shares = np.maximum(works / works.sum() * p, 1.0)
    return max(
        model.task_time(t, float(q)) for t, q in zip(tasks, shares)
    )


def simulate_levels(
    levels: list[list[SimTask]], p: int, model: CostModel | None = None
) -> float:
    """Total makespan of a level-synchronous DAG on ``p`` processors."""
    model = model or DEFAULT_COST_MODEL
    return sum(simulate_level(level, p, model) for level in levels)


def simulate_sequence(
    tasks: list[SimTask], p: int, model: CostModel | None = None
) -> float:
    """Makespan when tasks run one after another, each using all ``p``.

    This is SuperFW *without* etree parallelism (Fig. 8) and Δ-stepping's
    source-sequential APSP driver.
    """
    model = model or DEFAULT_COST_MODEL
    return sum(model.task_time(t, p) for t in tasks)


def speedup_curve(
    run_at_p,
    procs: list[int],
) -> dict[int, float]:
    """Evaluate ``T(1)/T(p)`` for a callable ``run_at_p(p) -> seconds``."""
    t1 = run_at_p(1)
    return {p: (t1 / run_at_p(p) if run_at_p(p) > 0 else float("inf")) for p in procs}

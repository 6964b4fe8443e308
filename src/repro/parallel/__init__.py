"""Parallel runtime: task DAGs, the work-depth simulator, Table 2 models.

The machine running this reproduction has a single physical core, so the
paper's strong-scaling experiments (Figs. 7-8) are replayed on a simulated
PRAM: every algorithm exposes its task DAG with per-task *work* (scalar
ops) and *depth* (sequential dispatches), the one machine model
(:class:`repro.plan.router.MachineModel`) prices each task, and the
scheduler computes the p-processor makespan by level-synchronous Brent/LPT
scheduling.  The threaded SuperFW backend in
:mod:`repro.core.parallel_superfw` proves the same DAG executes correctly
with real concurrency.
"""

from repro.parallel.tasks import (
    SimTask,
    delta_stepping_tasks,
    sssp_family_tasks,
    superfw_levels,
)
from repro.parallel.communication import (
    blockedfw_comm_volume,
    blockedfw_distributed_time,
    communication_table,
    superfw_comm_volume,
    superfw_distributed_time,
)
from repro.parallel.scheduler import (
    lpt_makespan,
    simulate_levels,
    simulate_sequence,
    speedup_curve,
)
from repro.parallel.workdepth import (
    AlgoModel,
    TABLE2_MODELS,
    concurrency,
    superfw_measured_depth,
    superfw_measured_work,
)

__all__ = [
    "AlgoModel",
    "blockedfw_comm_volume",
    "blockedfw_distributed_time",
    "communication_table",
    "superfw_comm_volume",
    "superfw_distributed_time",
    "SimTask",
    "TABLE2_MODELS",
    "concurrency",
    "delta_stepping_tasks",
    "lpt_makespan",
    "simulate_levels",
    "simulate_sequence",
    "speedup_curve",
    "sssp_family_tasks",
    "superfw_levels",
    "superfw_measured_depth",
    "superfw_measured_work",
]

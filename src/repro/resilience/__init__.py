"""Resilient execution layer: typed errors, fault injection, retry,
budgets, supervision, checkpoints, and the verified fallback chain.

Everything that can go wrong in a solve flows through this package:
failures are classified into the :class:`ReproError` hierarchy
(validation, task, kernel, worker-crash, budget, fallback — the taxonomy
``docs/ARCHITECTURE.md`` calls the *error contract*); deterministic
fault injection (:func:`inject_faults`) exercises those paths in tests
and CI, including the process-level chaos sites (``worker_kill``,
``worker_hang``, ``shm_detach``); per-supernode retries
(:class:`RetryPolicy`, :func:`~repro.resilience.retry.call_with_retry`)
re-run transactional supernode tasks bit-exactly; :class:`SolveBudget`
bounds wall-clock, operations, and memory at task granularity — cooperatively
inside process workers too; the heartbeat :class:`Supervisor` rebuilds a
crashed or hung process pool and re-dispatches the unfinished level
(:mod:`repro.resilience.supervisor`); :class:`CheckpointManager`
snapshots the distance matrix at level barriers for ``resume=``
(:mod:`repro.resilience.checkpoint`); and ``method="auto"`` escalates
down the certificate-verified fallback chain
(:func:`~repro.resilience.fallback.solve_with_fallback`).  Retry,
recovery, checkpoint, and fallback transitions are also reported to the
ambient tracer (:mod:`repro.obs`) as ``retry`` instants and
``fallback`` / ``resilience.recover.*`` spans.

See ``docs/RESILIENCE.md`` for the full design and the CLI exit-code
mapping (2 validation / 3 budget / 4 fallback-exhausted / 5 worker-crash).
"""

from repro.resilience.budget import BudgetTracker, SolveBudget, as_tracker
from repro.resilience.checkpoint import CheckpointManager, solve_key, weights_sha
from repro.resilience.errors import (
    BudgetExceededError,
    FallbackExhaustedError,
    GraphValidationError,
    KernelFaultError,
    NegativeCycleError,
    ReproError,
    SolveTimeoutError,
    StaleEpochError,
    StaleEpochWarning,
    TaskFailedError,
    UnknownMethodError,
    UnreachablePairError,
    WorkerCrashError,
)
from repro.resilience.fallback import DEFAULT_CHAIN, Attempt, solve_with_fallback
from repro.resilience.faults import (
    FaultInjector,
    FaultSpec,
    active_injector,
    default_fault_seed,
    inject_faults,
)
from repro.resilience.retry import DEFAULT_TASK_RETRY, RetryPolicy, call_with_retry
from repro.resilience.supervisor import (
    HeartbeatBoard,
    Supervisor,
    SupervisorPolicy,
    coerce_policy,
)

__all__ = [
    "Attempt",
    "BudgetExceededError",
    "BudgetTracker",
    "CheckpointManager",
    "DEFAULT_CHAIN",
    "DEFAULT_TASK_RETRY",
    "FallbackExhaustedError",
    "FaultInjector",
    "FaultSpec",
    "GraphValidationError",
    "HeartbeatBoard",
    "KernelFaultError",
    "NegativeCycleError",
    "ReproError",
    "RetryPolicy",
    "SolveBudget",
    "SolveTimeoutError",
    "StaleEpochError",
    "StaleEpochWarning",
    "Supervisor",
    "SupervisorPolicy",
    "TaskFailedError",
    "UnknownMethodError",
    "UnreachablePairError",
    "WorkerCrashError",
    "active_injector",
    "as_tracker",
    "call_with_retry",
    "coerce_policy",
    "default_fault_seed",
    "inject_faults",
    "solve_key",
    "solve_with_fallback",
    "weights_sha",
]

"""repro — a supernodal all-pairs shortest path library.

A faithful, from-scratch Python reproduction of

    Piyush Sao, Ramakrishnan Kannan, Prasun Gera, Richard Vuduc.
    "A Supernodal All-Pairs Shortest Path Algorithm." PPoPP 2020.

Quickstart
----------
>>> from repro import generators, apsp
>>> g = generators.grid2d(8, 8, seed=0)
>>> result = apsp(g, method="superfw")
>>> result.dist.shape
(64, 64)

Public surface
--------------
* :mod:`repro.core` — SuperFW and every baseline (``apsp`` front-end);
* :mod:`repro.graphs` — CSR graphs, generators, the Table 3 suite;
* :mod:`repro.plan` — the analyze/solve split: weight-independent
  plans, structure-keyed caching, and the multi-solve ``APSPSession``;
* :mod:`repro.ordering` — nested dissection, BFS/RCM, minimum degree;
* :mod:`repro.symbolic` — etree, fill, supernodes;
* :mod:`repro.semiring` — tropical algebra and blocked kernels;
* :mod:`repro.parallel` — task DAGs and the work-depth scaling simulator;
* :mod:`repro.resilience` — typed errors, fault injection, budgets, and
  the verified ``method="auto"`` fallback chain;
* :mod:`repro.serve` — the serving tier: hub-label index seeded from
  the separator hierarchy plus the batched ``DistanceServer``;
* :mod:`repro.experiments` — one runner per paper table/figure.
"""

from repro.core.api import apsp, available_methods
from repro.core.paths import PathOracle
from repro.core.result import APSPResult
from repro.core.superfw import superfw
from repro.graphs import generators
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.obs import (
    MetricsRegistry,
    Tracer,
    flame_summary,
    use_tracer,
    write_chrome_trace,
    write_csv,
)
from repro.ordering.nested_dissection import nested_dissection
from repro.plan import (
    APSPSession,
    CommitInfo,
    Epoch,
    Plan,
    PlanCache,
    UpdateBuffer,
    UpdateRouter,
    analyze,
    structure_hash,
)
from repro.resilience import (
    BudgetExceededError,
    CheckpointManager,
    FallbackExhaustedError,
    FaultSpec,
    GraphValidationError,
    KernelFaultError,
    NegativeCycleError,
    ReproError,
    RetryPolicy,
    SolveBudget,
    SolveTimeoutError,
    StaleEpochError,
    StaleEpochWarning,
    SupervisorPolicy,
    TaskFailedError,
    UnreachablePairError,
    WorkerCrashError,
    inject_faults,
)
from repro.serve import DistanceServer, HubLabelIndex

__version__ = "1.1.0"

__all__ = [
    "APSPResult",
    "APSPSession",
    "BudgetExceededError",
    "CheckpointManager",
    "CommitInfo",
    "DiGraph",
    "DistanceServer",
    "Epoch",
    "FallbackExhaustedError",
    "FaultSpec",
    "Graph",
    "GraphValidationError",
    "HubLabelIndex",
    "KernelFaultError",
    "MetricsRegistry",
    "NegativeCycleError",
    "PathOracle",
    "Plan",
    "PlanCache",
    "ReproError",
    "RetryPolicy",
    "SolveBudget",
    "SolveTimeoutError",
    "StaleEpochError",
    "StaleEpochWarning",
    "SupervisorPolicy",
    "TaskFailedError",
    "Tracer",
    "UnreachablePairError",
    "UpdateBuffer",
    "UpdateRouter",
    "WorkerCrashError",
    "analyze",
    "apsp",
    "available_methods",
    "flame_summary",
    "generators",
    "inject_faults",
    "nested_dissection",
    "structure_hash",
    "superfw",
    "use_tracer",
    "write_chrome_trace",
    "write_csv",
    "__version__",
]

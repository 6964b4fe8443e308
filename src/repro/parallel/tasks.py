"""Task-DAG extraction for the scaling simulator.

Each algorithm is reduced to *malleable tasks*: a task has ``work`` (total
scalar operations, divisible over processors) and ``depth`` (the number of
inherently sequential dispatches, each charged the machine model's
``seconds_per_task`` regardless of processor count — one per SuperFW
supernode elimination, one per bucket round of Δ-stepping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.symbolic.structure import SupernodalStructure, superfw_snode_ops


@dataclass(frozen=True)
class SimTask:
    """A malleable task for the work-depth simulator.

    Attributes
    ----------
    work:
        Total scalar operations (parallelizable).
    depth:
        Sequential dispatches on the task's critical path.
    """

    work: float
    depth: float


def supernode_costs(structure: SupernodalStructure) -> list[SimTask]:
    """One task per supernode elimination, indexed by supernode.

    Work is the exact kernel op count of
    :func:`repro.core.superfw.eliminate_supernode`
    (:func:`~repro.symbolic.structure.superfw_snode_ops`); depth is one
    dispatch, so one processor runs the DAG in exactly the router's
    sweep price (:func:`~repro.plan.router.sweep_seconds`).
    """
    return [
        SimTask(work=float(w), depth=1.0)
        for w in superfw_snode_ops(structure).tolist()
    ]


def superfw_levels(structure: SupernodalStructure) -> list[list[SimTask]]:
    """SuperFW task DAG grouped by etree level (barriers between levels)."""
    tasks = supernode_costs(structure)
    return [
        [tasks[s] for s in group.tolist()] for group in structure.level_order()
    ]


def sssp_family_tasks(graph: Graph, *, heap_constant: float = 2.0) -> list[SimTask]:
    """Per-source tasks of APSP-Dijkstra (CSR or Boost-style).

    Each SSSP is inherently sequential (priority-queue loop), so
    ``depth == work``; the work model is the standard
    ``(m + n) log n`` binary-heap count scaled by ``heap_constant``.
    APSP parallelizes across the ``n`` independent sources — the
    embarrassingly parallel pattern that lets Dijkstra scale linearly in
    Fig. 7.
    """
    n, m = graph.n, graph.num_edges
    logn = max(np.log2(max(n, 2)), 1.0)
    per_source = heap_constant * (2 * m + n) * logn
    return [SimTask(work=per_source, depth=per_source) for _ in range(n)]


def delta_stepping_tasks(
    graph: Graph, rounds_per_source: np.ndarray, *, round_cost: float = 1.0
) -> list[SimTask]:
    """Per-source Δ-stepping tasks.

    Δ-stepping parallelizes *within* one SSSP (bucket relaxations), so its
    APSP driver runs sources sequentially and each task's depth is its
    bucket-round count (`rounds_per_source`, measured by
    :func:`repro.core.delta_stepping.sssp_delta_stepping`).  Heavy
    synchronization per round is what makes it scale poorly (§5.2.3).
    """
    n, m = graph.n, graph.num_edges
    per_source_work = float(2 * m + n)
    return [
        SimTask(work=per_source_work, depth=float(r) * round_cost)
        for r in np.asarray(rounds_per_source, dtype=np.float64)
    ]

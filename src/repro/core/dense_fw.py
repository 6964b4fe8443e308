"""Dense Floyd-Warshall (paper Algorithm 1).

The textbook three-loop algorithm with the inner two loops vectorized into
one rank-1 broadcast per pivot.  Serves as the correctness oracle for every
other variant and as the ``O(n^3)`` reference point of the evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import OpCounter
from repro.core.result import APSPResult
from repro.graphs.graph import Graph
from repro.obs import phase
from repro.resilience.budget import BudgetTracker, SolveBudget, as_tracker
from repro.resilience.errors import NegativeCycleError
from repro.semiring.base import MIN_PLUS, Semiring


def floyd_warshall_inplace(
    dist: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    via: np.ndarray | None = None,
    *,
    tracker: BudgetTracker | None = None,
) -> int:
    """Run FW on a dense matrix in place; returns the scalar op count.

    Parameters
    ----------
    dist:
        Square matrix over the semiring, modified in place.
    via:
        Optional ``(n, n)`` int matrix recording the last pivot that
        improved each pair (−1 when the direct edge is optimal), enabling
        path reconstruction.
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("dist must be square")
    per_pivot = 2 * n * n
    if semiring is MIN_PLUS:
        for k in range(n):
            if tracker is not None:
                tracker.charge(per_pivot, where=f"dense-fw:pivot {k}")
            cand = dist[:, k : k + 1] + dist[k, :]
            if via is None:
                np.minimum(dist, cand, out=dist)
            else:
                better = cand < dist
                via[better] = k
                np.minimum(dist, cand, out=dist)
    else:
        for k in range(n):
            if tracker is not None:
                tracker.charge(per_pivot, where=f"dense-fw:pivot {k}")
            cand = semiring.mul(dist[:, k : k + 1], dist[k, :])
            if via is not None:
                better = semiring.add(dist, cand) != dist
                via[better] = k
            semiring.add(dist, cand, out=dist)
    return 2 * n * n * n


def floyd_warshall(
    graph: Graph | np.ndarray,
    *,
    semiring: Semiring = MIN_PLUS,
    track_via: bool = False,
    check_negative_cycle: bool = True,
    budget: SolveBudget | BudgetTracker | float | None = None,
) -> APSPResult:
    """APSP by dense Floyd-Warshall.

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.graph.Graph` or a ready dense matrix over
        the semiring (``inf`` = no edge for min-plus).
    track_via:
        Record pivots for path reconstruction (result meta key ``"via"``).
    check_negative_cycle:
        Raise :class:`~repro.resilience.errors.NegativeCycleError` when a
        negative diagonal entry appears, which certifies a negative cycle
        (min-plus only).
    budget:
        Optional :class:`~repro.resilience.budget.SolveBudget` checked at
        every pivot step.
    """
    timings: dict[str, float] = {}
    ops = OpCounter()
    if hasattr(graph, "to_dense_dist"):
        n_est = graph.n
    else:
        n_est = np.asarray(graph).shape[0]
    tracker = as_tracker(budget, units_total=n_est)
    if tracker is not None:
        tracker.check_allocation(float(n_est) ** 2 * 8, where="dense-fw:dist")
    if hasattr(graph, "to_dense_dist"):
        dist = graph.to_dense_dist()
    else:
        dist = np.array(graph, dtype=np.float64, copy=True)
    via = np.full(dist.shape, -1, dtype=np.int64) if track_via else None
    with phase(timings, "solve", method="dense-fw"):
        count = floyd_warshall_inplace(dist, semiring, via, tracker=tracker)
    ops.add("dense_fw", count)
    if (
        check_negative_cycle
        and semiring is MIN_PLUS
        and np.any(np.diag(dist) < 0)
    ):
        raise NegativeCycleError(witness=int(np.argmin(np.diag(dist))))
    meta: dict = {}
    if track_via:
        meta["via"] = via
    return APSPResult(dist=dist, method="dense-fw", timings=timings, ops=ops, meta=meta)

"""Blocked Floyd-Warshall (paper Algorithm 2, the *BlockedFw* baseline).

The matrix is tiled into ``b x b`` blocks; every outer iteration runs a
DiagUpdate on the pivot block, PanelUpdates on its block row/column, and a
MinPlus outer product on the trailing blocks.  This is the efficient dense
baseline the paper normalizes Fig. 6a against — it performs the full
``O(n^3)`` work regardless of sparsity.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import OpCounter
from repro.core.result import APSPResult
from repro.graphs.graph import Graph
from repro.obs import phase
from repro.plan.plan import Plan, TilingPlan, make_tiling
from repro.resilience.budget import BudgetTracker, SolveBudget, as_tracker
from repro.resilience.errors import NegativeCycleError
from repro.semiring.base import MIN_PLUS, Semiring
from repro.semiring.engine import get_engine
from repro.semiring.kernels import (
    diag_update,
    outer_update,
    panel_update_cols,
    panel_update_rows,
)


def blocked_floyd_warshall_inplace(
    dist: np.ndarray,
    *,
    block_size: int = 64,
    semiring: Semiring = MIN_PLUS,
    counter: OpCounter | None = None,
    tracker: BudgetTracker | None = None,
    tiling: TilingPlan | None = None,
) -> None:
    """Run blocked FW in place on a dense matrix.

    ``tiling`` supplies a precomputed block layout
    (:class:`~repro.plan.plan.TilingPlan`); otherwise one is derived
    from ``block_size`` on the fly.
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("dist must be square")
    if tiling is None:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        tiling = make_tiling(n, block_size)
    elif tiling.n != n:
        raise ValueError(
            f"tiling covers n={tiling.n} but the matrix has n={n}"
        )
    counter = counter if counter is not None else OpCounter()
    bounds = tiling.bounds
    nb = tiling.nb
    for k in range(nb):
        if tracker is not None:
            tracker.charge(
                2 * n * n * (bounds[k + 1] - bounds[k]),
                units=1,
                where=f"blocked-fw:pivot block {k}",
            )
        k0, k1 = bounds[k], bounds[k + 1]
        diag = dist[k0:k1, k0:k1]
        counter.add("diag", diag_update(diag, semiring))
        # The pivot block row and column, as the slices left and right
        # of (above and below) the pivot block.
        beside = [(lo, hi) for lo, hi in ((0, k0), (k1, n)) if hi > lo]
        for lo, hi in beside:
            counter.add(
                "panel", panel_update_rows(dist[k0:k1, lo:hi], diag, semiring)
            )
            counter.add(
                "panel", panel_update_cols(dist[lo:hi, k0:k1], diag, semiring)
            )
        # The trailing update as its (up to) four quadrants, counted
        # once per pivot block.
        outer = 0
        for i0, i1 in beside:
            for j0, j1 in beside:
                outer += outer_update(
                    dist[i0:i1, j0:j1], dist[i0:i1, k0:k1],
                    dist[k0:k1, j0:j1], semiring,
                )
        if outer:
            counter.add("outer", outer)


def blocked_floyd_warshall(
    graph: Graph | np.ndarray,
    *,
    block_size: int = 64,
    semiring: Semiring = MIN_PLUS,
    budget: SolveBudget | BudgetTracker | float | None = None,
    plan: Plan | TilingPlan | None = None,
) -> APSPResult:
    """APSP by blocked Floyd-Warshall (the dense *BlockedFw* baseline).

    The min-plus products run on the ambient
    :class:`~repro.semiring.engine.SemiringGemmEngine`; its per-kernel
    call/op/time counters for this solve land in ``meta["engine"]``.

    ``plan`` accepts either a :class:`~repro.plan.plan.TilingPlan` or a
    supernodal :class:`~repro.plan.plan.Plan` (its vertex count seeds
    the tiling) — the dense baseline's share of the analyze/solve split,
    and what lets the fallback chain hand one plan to every backend.
    """
    timings: dict[str, float] = {}
    ops = OpCounter()
    tiling: TilingPlan | None = None
    if isinstance(plan, TilingPlan):
        tiling = plan
    elif plan is not None:
        tiling = plan.tiling(block_size)
    if hasattr(graph, "to_dense_dist"):
        n_est = graph.n
    else:
        n_est = np.asarray(graph).shape[0]
    tracker = as_tracker(budget)
    if tracker is not None:
        tracker.check_allocation(float(n_est) ** 2 * 8, where="blocked-fw:dist")
    if hasattr(graph, "to_dense_dist"):
        dist = graph.to_dense_dist()
    else:
        dist = np.array(graph, dtype=np.float64, copy=True)
    eng = get_engine()
    engine_before = eng.stats_snapshot()
    with phase(timings, "solve", method="blocked-fw"):
        blocked_floyd_warshall_inplace(
            dist,
            block_size=block_size,
            semiring=semiring,
            counter=ops,
            tracker=tracker,
            tiling=tiling,
        )
    if semiring is MIN_PLUS and np.any(np.diag(dist) < 0):
        raise NegativeCycleError(witness=int(np.argmin(np.diag(dist))))
    return APSPResult(
        dist=dist,
        method="blocked-fw",
        timings=timings,
        ops=ops,
        meta={
            "block_size": block_size,
            "engine": eng.stats_dict(since=engine_before),
        },
    )

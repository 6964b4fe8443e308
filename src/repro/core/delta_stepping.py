"""Δ-stepping SSSP (Meyer & Sanders) and the autotuned APSP driver.

The paper's third baseline (§5.1.2): vertices settle in buckets of width
``Δ``; light edges (``w < Δ``) are relaxed iteratively inside the current
bucket, heavy edges once on bucket completion.  Per the paper, the APSP
driver *autotunes* ``Δ`` by trying several candidates on the first few
SSSP calls and keeping the fastest.

The bucket rounds also expose the algorithm's parallel structure: each
light-edge phase is one parallel relaxation step, which the simulated
scaling model of :mod:`repro.parallel.scheduler` consumes as the task
depth (this is why Δ-stepping scales poorly in Fig. 7 — many rounds, each
with a synchronization).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.result import APSPResult
from repro.graphs.graph import Graph
from repro.graphs.validation import validate_weights
from repro.obs import phase
from repro.resilience.budget import BudgetTracker, SolveBudget, as_tracker
from repro.resilience.errors import GraphValidationError


def sssp_delta_stepping(
    graph: Graph, source: int, delta: float, *, out: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Δ-stepping from ``source``; returns ``(dist, rounds)``.

    ``rounds`` counts light-edge relaxation phases plus heavy-edge phases —
    the critical-path length of a parallel execution.
    """
    if delta <= 0:
        raise GraphValidationError("delta must be positive")
    n = graph.n
    dist = out if out is not None else np.full(n, np.inf)
    if out is not None:
        dist.fill(np.inf)
    dist[source] = 0.0
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    light = weights < delta
    buckets: dict[int, set[int]] = {0: {source}}
    rounds = 0

    def relax(targets: np.ndarray, cands: np.ndarray) -> None:
        for u, nd in zip(targets, cands):
            if nd < dist[u]:
                old_b = int(dist[u] / delta) if np.isfinite(dist[u]) else -1
                new_b = int(nd / delta)
                if old_b >= 0 and old_b in buckets:
                    buckets[old_b].discard(int(u))
                buckets.setdefault(new_b, set()).add(int(u))
                dist[u] = nd

    current = 0
    while buckets:
        while current not in buckets:
            current += 1
            if current > max(buckets):
                break
        if current not in buckets:
            break
        deleted: set[int] = set()
        # Light-edge phases: iterate within the bucket to a fixed point.
        while buckets.get(current):
            frontier = np.fromiter(buckets[current], dtype=np.int64)
            buckets[current] = set()
            deleted.update(int(v) for v in frontier)
            rounds += 1
            for v in frontier:
                lo, hi = indptr[v], indptr[v + 1]
                mask = light[lo:hi]
                if mask.any():
                    relax(indices[lo:hi][mask], dist[v] + weights[lo:hi][mask])
        # Heavy-edge phase for every vertex settled in this bucket.
        rounds += 1
        for v in deleted:
            lo, hi = indptr[v], indptr[v + 1]
            mask = ~light[lo:hi]
            if mask.any():
                relax(indices[lo:hi][mask], dist[v] + weights[lo:hi][mask])
        buckets.pop(current, None)
    return dist, rounds


def autotune_delta(
    graph: Graph, *, candidates: list[float] | None = None, sources: int = 3
) -> float:
    """Pick Δ by timing a few SSSP calls per candidate (paper §5.1.2).

    Candidates default to multiples of the mean edge weight bracketing the
    classic ``Δ = max_w`` and ``Δ = mean_degree``-based heuristics.
    """
    validate_weights(graph, require_positive=True)
    wmean = float(graph.weights.mean()) if graph.weights.size else 1.0
    wmax = float(graph.weights.max()) if graph.weights.size else 1.0
    if candidates is None:
        candidates = sorted(
            {wmean / 4, wmean, 4 * wmean, wmax, 4 * wmax}
        )
    best_delta = candidates[0]
    best_time = np.inf
    rng = np.random.default_rng(0)
    srcs = rng.choice(graph.n, size=min(sources, graph.n), replace=False)
    for delta in candidates:
        start = time.perf_counter()
        for s in srcs:
            sssp_delta_stepping(graph, int(s), delta)
        elapsed = time.perf_counter() - start
        if elapsed < best_time:
            best_time = elapsed
            best_delta = delta
    return float(best_delta)


def apsp_delta_stepping(
    graph: Graph,
    *,
    delta: float | None = None,
    budget: SolveBudget | BudgetTracker | float | None = None,
) -> APSPResult:
    """APSP by Δ-stepping per source, autotuning Δ when not given.

    ``budget`` limits are checked once per source.
    """
    validate_weights(graph, require_positive=True)
    n = graph.n
    timings: dict[str, float] = {}
    tracker = as_tracker(budget, units_total=n)
    if tracker is not None:
        tracker.check_allocation(float(n) ** 2 * 8, where="delta-stepping:dist")
    if delta is None:
        with phase(timings, "autotune", "delta-autotune"):
            delta = autotune_delta(graph)
    dist = np.empty((n, n))
    total_rounds = 0
    m = graph.indices.size
    with phase(timings, "solve", method="delta-stepping"):
        for s in range(n):
            if tracker is not None:
                tracker.charge(2 * m, units=1, where=f"delta-stepping:source {s}")
            _, rounds = sssp_delta_stepping(graph, s, delta, out=dist[s])
            total_rounds += rounds
    return APSPResult(
        dist=dist,
        method="delta-stepping",
        timings=timings,
        meta={"delta": delta, "rounds": total_rounds},
    )

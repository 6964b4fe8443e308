"""Path doubling: APSP by repeated min-plus squaring.

The fourth row of the paper's Table 2 (after Tiskin): ``O(n³ log n)`` work
but only ``O(log n)`` depth — the best-known parallel depth for APSP.
Each round computes ``D ← D ⊕ D ⊗ D``; after round ``k`` every shortest
path of at most ``2^k`` edges is correct, so ``⌈log₂(n−1)⌉`` rounds (or an
early fixpoint) finish the job.

Included so Table 2's work/depth trade-off space is runnable end to end,
not just analytic.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import OpCounter
from repro.core.result import APSPResult
from repro.obs import phase
from repro.semiring.base import MIN_PLUS, Semiring
from repro.semiring.minplus import minplus_gemm, semiring_gemm


def path_doubling(
    graph,
    *,
    semiring: Semiring = MIN_PLUS,
    check_negative_cycle: bool = True,
) -> APSPResult:
    """APSP by min-plus matrix squaring (``D ← D ⊕ D²`` until fixpoint).

    Parameters
    ----------
    graph:
        A :class:`~repro.graphs.graph.Graph`/:class:`~repro.graphs.digraph.DiGraph`
        or a ready dense matrix over the semiring.

    Returns
    -------
    APSPResult
        ``meta["rounds"]`` records the number of squarings performed
        (≤ ⌈log₂(n−1)⌉, fewer when the distance matrix converges early —
        e.g. small-diameter graphs).
    """
    timings: dict[str, float] = {}
    ops = OpCounter()
    if hasattr(graph, "to_dense_dist"):
        dist = graph.to_dense_dist()
    else:
        dist = np.array(graph, dtype=np.float64, copy=True)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("dist must be square")
    rounds = 0
    with phase(timings, "solve", method="path-doubling"):
        scratch = np.empty_like(dist)
        max_rounds = max(int(np.ceil(np.log2(max(n - 1, 1)))), 1)
        for _ in range(max_rounds):
            if semiring is MIN_PLUS:
                minplus_gemm(dist, dist, out=scratch)
                np.minimum(scratch, dist, out=scratch)
            else:
                semiring_gemm(semiring, dist, dist, out=scratch)
                semiring.add(scratch, dist, out=scratch)
            ops.add("square", 2 * n**3)
            rounds += 1
            converged = np.array_equal(
                np.nan_to_num(scratch, posinf=1e300),
                np.nan_to_num(dist, posinf=1e300),
            )
            dist, scratch = scratch, dist
            if converged:
                break
    if (
        check_negative_cycle
        and semiring is MIN_PLUS
        and np.any(np.diag(dist) < 0)
    ):
        raise ValueError("graph contains a negative-weight cycle")
    return APSPResult(
        dist=dist,
        method="path-doubling",
        timings=timings,
        ops=ops,
        meta={"rounds": rounds},
    )

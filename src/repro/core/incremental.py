"""Batch folding of improved arcs into a published APSP matrix.

The paper's related-work section (§6) points at Carré's algebraic account
of graph updates via the Sherman-Morrison-Woodbury identity: a low-rank
change to the weight matrix induces a closed-form update of its closure.
In min-plus terms, improving a batch of arcs updates every pair by the
best path routed through the improved arcs.
:func:`apply_batch_improvements` does that in one pass through the
*terminal closure* — close the small ``p × p`` subproblem over the arcs'
endpoints first, then apply one ``(n × p) ⊗ (p × p) ⊗ (p × n)`` min-plus
sandwich: ``O(n² p)`` instead of an ``O(n² |S|)`` re-solve.  Because
every updated shortest path decomposes at its terminal visits into
old-distance segments, a single pass reaches the exact fixed point; no
verification sweep is needed.  Weight *increases* can invalidate
arbitrarily many pairs and need a re-solve (the classical asymmetry of
dynamic shortest paths).

:class:`~repro.plan.session.APSPSession` is the one update path: its
``commit()`` (and ``update_edge``, a one-element commit) routes each
batch to this fold or to a warm re-solve.  The reweight-stream helpers
below feed the example, the CLI ``update`` subcommand and
``benchmarks/bench_dynamic.py``.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.semiring.engine import get_engine


def apply_batch_improvements(
    dist: np.ndarray,
    updates,
    *,
    directed: bool = False,
    atol: float = 1e-12,
) -> int:
    """Fold a batch of improved arcs into ``dist`` in one rank-k pass.

    ``updates`` is a sequence of ``(u, v, w)`` arc reweights; every ``w``
    must be ≤ the arc's previous weight (new arcs count as decreases from
    ``inf``), and the batch must not create a negative cycle.  ``dist``
    must be a valid APSP matrix of the graph *before* the batch; it is
    mutated in place and the count of pairs improved by more than
    ``atol`` is returned.

    The exact fixed point is reached in a single pass via the terminal
    closure: with ``P`` the set of arc endpoints (*terminals*), seed
    ``T = min(dist[P, P], W_new)`` and close it with a dense ``p × p``
    Floyd-Warshall — any new shortest path splits at its first/last
    terminal visits into old-``dist`` segments and terminal-to-terminal
    hops, so ``T`` holds the *new* terminal distances exactly.  The
    rank-k sandwich ``dist ⊕ (dist[:, P] ⊗ T) ⊗ dist[P, :]`` then
    updates every pair at once; the two rectangular products route
    through the ambient :class:`~repro.semiring.engine.SemiringGemmEngine`.
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("dist must be square")
    arcs = np.asarray(list(updates), dtype=np.float64)
    if arcs.size == 0:
        return 0
    if arcs.ndim != 2 or arcs.shape[1] != 3:
        raise ValueError("updates must be (u, v, w) triples")
    heads = arcs[:, 0].astype(np.int64)
    tails = arcs[:, 1].astype(np.int64)
    if np.any(heads == tails) or heads.min() < 0 or tails.min() < 0 or max(
        heads.max(), tails.max()
    ) >= n:
        raise ValueError("invalid edge endpoints")
    if not directed:
        heads, tails = (
            np.concatenate([heads, tails]),
            np.concatenate([tails, heads]),
        )
        arcs = np.vstack([arcs, arcs])
    terminals = np.unique(np.concatenate([heads, tails]))
    index = {int(t): i for i, t in enumerate(terminals)}
    # Seed the terminal subproblem with old distances, min the new arcs in.
    closure = dist[np.ix_(terminals, terminals)].copy()
    for a, b, w in zip(heads, tails, arcs[:, 2]):
        ia, ib = index[int(a)], index[int(b)]
        if w < closure[ia, ib]:
            closure[ia, ib] = w
    # Dense FW on p terminals: O(p³), exact new terminal distances.
    for t in range(terminals.shape[0]):
        np.minimum(
            closure, closure[:, t : t + 1] + closure[t, :], out=closure
        )
    engine = get_engine()
    left = engine.gemm(dist[:, terminals], closure)
    candidate = engine.gemm(left, dist[terminals, :])
    improved = int(np.count_nonzero(candidate < dist - atol))
    np.minimum(dist, candidate, out=dist)
    return improved


# ---------------------------------------------------------------------------
# Synthetic reweight traffic (shared by the example, the CLI `update`
# subcommand, and benchmarks/bench_dynamic.py).
# ---------------------------------------------------------------------------

#: Default weight quantum: dyadic weights (multiples of 2⁻¹⁰) make every
#: min-plus path sum exactly representable in float64, so incremental
#: folds and from-scratch re-solves agree *bit for bit* regardless of
#: summation order.
WEIGHT_QUANTUM = 2.0**-10


def quantize_weights(graph: Graph | DiGraph, quantum: float = WEIGHT_QUANTUM):
    """Snap a graph's weights onto the dyadic grid (for exactness tests)."""
    w = np.maximum(np.round(graph.weights / quantum), 1.0) * quantum
    return graph.with_weights(w)


def reweight_stream(
    graph: Graph | DiGraph,
    *,
    ticks: int,
    per_tick: int,
    p_increase: float = 0.3,
    seed: int = 0,
    quantum: float = WEIGHT_QUANTUM,
):
    """Yield ``ticks`` batches of ``(u, v, w)`` reweights against ``graph``.

    Models live traffic: each tick touches ``per_tick`` random edges, a
    ``p_increase`` fraction slowing down (weight × ~1.05–1.5) and the
    rest speeding up (× ~0.5–0.95).  The stream tracks its own evolving
    weight state so factors compound across ticks, and every emitted
    weight is quantized to ``quantum`` so replays admit bit-identical
    cross-checks.  The input graph is not modified.
    """
    rng = np.random.default_rng(seed)
    edges = (
        graph.arc_array() if isinstance(graph, DiGraph) else graph.edge_array()
    )
    current = {
        (int(e[0]), int(e[1])): float(e[2]) for e in edges
    }
    keys = list(current)
    for _ in range(ticks):
        batch = []
        picks = rng.choice(len(keys), size=min(per_tick, len(keys)),
                           replace=False)
        for i in picks:
            u, v = keys[int(i)]
            if rng.random() < p_increase:
                factor = rng.uniform(1.05, 1.5)
            else:
                factor = rng.uniform(0.5, 0.95)
            w = max(quantum, round(current[(u, v)] * factor / quantum) * quantum)
            current[(u, v)] = w
            batch.append((u, v, w))
        yield batch

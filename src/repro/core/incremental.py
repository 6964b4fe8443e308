"""Batch folding of improved arcs into a published APSP matrix.

The paper's related-work section (§6) points at Carré's algebraic account
of graph updates via the Sherman-Morrison-Woodbury identity: a low-rank
change to the weight matrix induces a closed-form update of its closure.
In min-plus terms, improving a batch of arcs updates every pair by the
best path routed through the improved arcs.
:func:`apply_batch_improvements` does that in one pass through the
*terminal closure*: close the small ``p × p`` subproblem over the arcs'
endpoints first, then route old-distance segments through it.  Every
new shortest path splits at its first and last terminal visits into
old segments and terminal-to-terminal hops, so one pass reaches the
exact fixed point; no verification sweep is needed.  Weight *increases*
can invalidate arbitrarily many pairs and need a re-solve (the classical
asymmetry of dynamic shortest paths).

**The fold touches only improvable pairs.**  The full ``(n × p) ⊗ (p ×
p) ⊗ (p × n)`` sandwich costs ``O(n² p)`` whatever the batch changes.
Instead, with ``left[i, d]`` the new distance from ``i`` to terminal
``d`` and ``right[c, j]`` the new distance from terminal ``c`` to ``j``
(both ``n × p``), call an arc ``c → d`` *improving* when its new weight
beats the old ``dist[c, d]``, ``R_d`` the rows whose distance to ``d``
dropped and ``C_c`` the columns whose distance from ``c`` dropped.  The
fold evaluates ``left[i, d] + dist[d, j]`` only on the blocks ``R_d ×
⋃ C_c`` over the improving arcs ``c → d``.  Why nothing is missed: take
a pair ``i → j`` whose distance dropped, a shortest new path between
them with the fewest improving arcs, and its last improving arc
``c → d``.

* The ``d → j`` suffix uses no improving arc, so it is no shorter than
  the old ``dist[d, j]``: new ``d(d, j)`` = old.
* If new ``d(i, d)`` were old, the path would cost ``old d(i, d) + old
  d(d, j) ≥ old d(i, j)``, and the pair would not have improved; so
  ``i ∈ R_d``.
* If new ``d(c, j)`` were old, splicing an old shortest ``c → j`` path
  (which holds no improving arc: one would make it shorter than
  ``old d(c, j)``) after the ``i → c`` prefix would give a path as
  short with one improving arc fewer; so ``j ∈ C_c``.

So every improved pair lies in a block, where its candidate
``new d(i, d) + old d(d, j)`` is its new distance; outside the blocks
every sandwich candidate is the length of some path and cannot beat the
old entry.  In exact arithmetic (on dyadic weights, in floating point)
the pruned fold equals the full sandwich bit for bit, with the same
improved count, at ``O(n p)`` plus the blocks.

:class:`~repro.plan.session.APSPSession` is the one update path: its
``commit()`` (and ``update_edge``, a one-element commit) routes each
batch to this fold or to a warm re-solve.  The reweight-stream helpers
below feed the example, the CLI ``update`` subcommand and
``benchmarks/bench_dynamic.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.semiring.engine import get_engine


#: Entries per block a fold gathers, updates and scatters at once.
_BLOCK = 1 << 16


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
    ``atol`` is returned.  :func:`fold_batch` is the same fold, also
    reporting how much of the matrix it touched.
    """
    return fold_batch(dist, updates, directed=directed, atol=atol).improved


@dataclass(frozen=True)
class Fold:
    """What one :func:`fold_batch` did.

    ``improved`` counts the pairs improved by more than ``atol``;
    ``rows`` the rows the fold rewrote and ``pairs`` the entries it
    re-evaluated (the ``n × n`` sandwich would be ``n`` and ``n²``).
    """

    improved: int
    rows: int
    pairs: int


def fold_batch(
    dist: np.ndarray,
    updates,
    *,
    directed: bool = False,
    atol: float = 1e-12,
) -> Fold:
    """:func:`apply_batch_improvements`, returning a :class:`Fold`.

    With ``P`` the arcs' endpoints (*terminals*), seed ``T = min(dist[P,
    P], W_new)`` and close it with a dense ``p × p`` Floyd-Warshall: ``T``
    holds the new terminal distances.  ``left = dist[:, P] ⊗ T`` are the
    new distances *to* the terminals and ``right = T ⊗ dist[P, :]`` (on
    undirected input ``leftᵀ``) the new distances *from* them; ``R_t``
    are the rows with ``left[:, t] < dist[:, P[t]]`` and ``C_c`` the
    columns with ``right[c, :] < dist[P[c], :]``.  Only an arc
    ``c → d`` with ``w < dist[c, d]`` (*improving*) can shorten a path;
    every row ``i`` in ``R_d`` for the end ``d`` of such an arc is
    rewritten over the columns ``C_c`` of the improving arcs into ``d``,
    with candidates ``left[i, d] + dist[d, j]``.  Rows in the same set
    of ``R_d`` share one min-plus product over those ends, so each entry
    is evaluated once, through the ambient
    :class:`~repro.semiring.engine.SemiringGemmEngine`.  No ``n × n``
    temporary is allocated.
    """
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("dist must be square")
    arcs = np.asarray(list(updates), dtype=np.float64)
    if arcs.size == 0:
        return Fold(0, 0, 0)
    if arcs.ndim != 2 or arcs.shape[1] != 3:
        raise ValueError("updates must be (u, v, w) triples")
    us = arcs[:, 0].astype(np.int64)
    vs = arcs[:, 1].astype(np.int64)
    if np.any(us == vs) or us.min() < 0 or vs.min() < 0 or max(
        us.max(), vs.max()
    ) >= n:
        raise ValueError("invalid edge endpoints")
    weights = arcs[:, 2]
    if not directed:
        us, vs = np.concatenate([us, vs]), np.concatenate([vs, us])
        weights = np.concatenate([weights, weights])
    terminals = np.unique(np.concatenate([us, vs]))
    ui = np.searchsorted(terminals, us)
    vi = np.searchsorted(terminals, vs)
    # Old rows and columns of the terminals: the fold writes ``dist``.
    old_rows = dist[terminals, :]
    old_cols = dist[:, terminals]
    # Seed the terminal subproblem with old distances, min the new arcs in.
    closure = old_rows[:, terminals].copy()
    np.minimum.at(closure, (ui, vi), weights)
    # Dense FW on p terminals: O(p³), exact new terminal distances.
    for t in range(terminals.shape[0]):
        np.minimum(
            closure, closure[:, t : t + 1] + closure[t, :], out=closure
        )
    engine = get_engine()
    left = engine.gemm(old_cols, closure)
    right = engine.gemm(closure, old_rows) if directed else left.T
    # The improving arcs u → v, and the terminals they end at.
    better = weights < old_rows[ui, vs]
    ends = np.unique(vi[better])
    # reach[e]: columns whose distance from the start of some improving
    # arc into ends[e] dropped (the C_c of the module docstring).
    reach = np.zeros((ends.shape[0], n), dtype=bool)
    np.logical_or.at(
        reach,
        np.searchsorted(ends, vi[better]),
        right[ui[better]] < old_rows[ui[better]],
    )
    # member[i, e]: whether row i's distance to ends[e] dropped (R_d).
    member = left[:, ends] < old_cols[:, ends]
    rows = np.flatnonzero(member.any(axis=1))
    if not rows.size:
        return Fold(0, 0, 0)
    improved = touched = pairs = 0
    # Group the rows by their set of ends (a stable sort keeps each
    # group ascending).
    sets = member[rows]
    order = np.lexsort(sets.T)
    cuts = np.flatnonzero((sets[order[1:]] != sets[order[:-1]]).any(axis=1))
    for part in np.split(order, cuts + 1):
        in_set = sets[part[0]]
        c = np.flatnonzero(reach[in_set].any(axis=0))
        if not c.size:
            continue
        t = ends[in_set]
        r = rows[part]
        if 2 * c.shape[0] > n:
            # Whole rows are contiguous copies, a column subset is a
            # fancy-indexed gather: past half the columns, evaluating
            # every column is cheaper, and the extra candidates change
            # nothing (each is a path length).
            c = slice(None)
        rhs = old_rows[t][:, c]
        step = max(1, _BLOCK // rhs.shape[1])
        for lo in range(0, r.shape[0], step):
            ri = r[lo:lo + step]
            at = (ri, c) if isinstance(c, slice) else np.ix_(ri, c)
            block = dist[at]
            cand = engine.gemm(left[np.ix_(ri, t)], rhs)
            improved += int(np.count_nonzero(cand < block - atol))
            np.minimum(block, cand, out=block)
            dist[at] = block
        touched += r.shape[0]
        pairs += r.shape[0] * rhs.shape[1]
    return Fold(improved, touched, pairs)


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

"""Multilevel graph bisection (the METIS substitute).

Pipeline (paper §3.2 relies on METIS/Scotch for exactly this):

1. *Coarsen* by heavy-edge matching until the graph is small;
2. *Initial partition* on the coarsest graph by BFS region growing from
   several random seeds (plus a spectral attempt when cheap);
3. *Uncoarsen*, projecting the bisection up and running FM refinement at
   every level.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.obs import get_tracer
from repro.ordering.coarsen import (
    LevelGraph,
    contract,
    heavy_edge_matching,
    level_graph_from_csr,
)
from repro.ordering.refine import cut_weight, fm_refine


def _bfs_grow(graph: LevelGraph, start: int) -> np.ndarray:
    """Grow side 0 by BFS from ``start`` until half the vertex weight."""
    n = graph.n
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    seen = [False] * n
    seen[start] = True
    order = [start]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for u in indices[indptr[v] : indptr[v + 1]]:
            if not seen[u]:
                seen[u] = True
                order.append(u)
    # If the graph is disconnected the BFS order misses vertices; append
    # them so the split still covers everything.
    if len(order) < n:
        order.extend(v for v in range(n) if not seen[v])
    # Side 0 takes every vertex whose BFS predecessors weigh under half.
    order_arr = np.asarray(order, dtype=np.int64)
    vw = graph.vweights[order_arr]
    before = np.cumsum(vw) - vw
    side = np.ones(n, dtype=np.int8)
    side[order_arr[before < int(graph.vweights.sum()) // 2]] = 0
    return side


def _spectral_side(graph: LevelGraph) -> np.ndarray | None:
    """Fiedler-vector bisection of the coarsest graph (best effort)."""
    n = graph.n
    if n < 8:
        return None
    try:
        from scipy import sparse
        from scipy.sparse.linalg import eigsh

        w = graph.eweights.astype(np.float64)
        rows = np.repeat(np.arange(n), np.diff(graph.indptr))
        adj = sparse.coo_matrix((w, (rows, graph.indices)), shape=(n, n)).tocsr()
        deg = np.asarray(adj.sum(axis=1)).ravel()
        lap = sparse.diags(deg) - adj
        vals, vecs = eigsh(
            lap.astype(np.float64),
            k=2,
            sigma=-1e-6,
            which="LM",
            v0=np.ones(n),  # fixed start vector keeps the pipeline deterministic
        )
        fiedler = vecs[:, np.argsort(vals)[1]]
        median = np.median(fiedler)
        return (fiedler > median).astype(np.int8)
    except Exception:
        return None


def _initial_partition(
    graph: LevelGraph, rng: np.random.Generator, *, tries: int, balance_tol: float
) -> np.ndarray:
    best_side: np.ndarray | None = None
    best_cut = np.iinfo(np.int64).max
    candidates = []
    n = graph.n
    starts = rng.choice(n, size=min(tries, n), replace=False)
    candidates.extend(_bfs_grow(graph, int(s)) for s in starts)
    spectral = _spectral_side(graph)
    if spectral is not None:
        candidates.append(spectral)
    for side in candidates:
        refined = fm_refine(graph, side, balance_tol=balance_tol)
        cut = cut_weight(graph, refined)
        if cut < best_cut:
            best_cut = cut
            best_side = refined
    assert best_side is not None
    return best_side


def bisect_graph(
    graph: Graph,
    *,
    balance_tol: float = 0.1,
    coarsen_to: int = 96,
    init_tries: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Bisect ``graph``; returns a 0/1 side per vertex.

    Multilevel V-cycle with FM refinement at every level.  The result is
    balanced to within ``balance_tol`` of an even vertex split whenever the
    refinement can maintain it.  With a tracer installed the phases record
    ``ordering.coarsen`` and ``ordering.initial`` spans, and every FM call
    an ``ordering.refine`` span.
    """
    tracer = get_tracer()
    rng = np.random.default_rng(seed)
    finest = level_graph_from_csr(graph.indptr, graph.indices)
    levels: list[LevelGraph] = [finest]
    maps: list[np.ndarray] = []
    with tracer.span("ordering.coarsen", n=finest.n) as span:
        while levels[-1].n > coarsen_to:
            match = heavy_edge_matching(levels[-1], rng)
            coarse, cmap = contract(levels[-1], match)
            if coarse.n >= levels[-1].n * 0.95:
                break  # matching stalled (e.g. star graphs): stop coarsening
            levels.append(coarse)
            maps.append(cmap)
        span.set(levels=len(levels), coarsest=levels[-1].n)
    with tracer.span("ordering.initial", n=levels[-1].n):
        side = _initial_partition(
            levels[-1], rng, tries=init_tries, balance_tol=balance_tol
        )
    for level in range(len(maps) - 1, -1, -1):
        side = side[maps[level]]
        side = fm_refine(levels[level], side, balance_tol=balance_tol)
    return side.astype(np.int8)

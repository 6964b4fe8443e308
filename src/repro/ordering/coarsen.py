"""Heavy-edge-matching coarsening for the multilevel partitioner.

The working representation at every level is a plain CSR pattern with
integer edge multiplicities and vertex weights — the same quotient
structure METIS maintains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class LevelGraph:
    """CSR pattern with edge and vertex weights for one multilevel level."""

    indptr: np.ndarray
    indices: np.ndarray
    eweights: np.ndarray
    vweights: np.ndarray

    @property
    def n(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def nnz(self) -> int:
        return self.indices.shape[0]


def level_graph_from_csr(indptr: np.ndarray, indices: np.ndarray) -> LevelGraph:
    """Wrap a unit-weight CSR pattern as the finest :class:`LevelGraph`."""
    n = indptr.shape[0] - 1
    return LevelGraph(
        indptr=np.asarray(indptr, dtype=np.int64),
        indices=np.asarray(indices, dtype=np.int64),
        eweights=np.ones(indices.shape[0], dtype=np.int64),
        vweights=np.ones(n, dtype=np.int64),
    )


def heavy_edge_matching(
    graph: LevelGraph, rng: np.random.Generator
) -> np.ndarray:
    """Greedy heavy-edge matching.

    Visits vertices in random order; each unmatched vertex pairs with its
    unmatched neighbor of maximum edge weight (ties to the first seen).
    Returns ``match`` with ``match[v]`` the partner (or ``v`` itself).
    """
    n = graph.n
    match = [-1] * n
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    ew = graph.eweights.tolist()
    for v in rng.permutation(n).tolist():
        if match[v] >= 0:
            continue
        best = -1
        best_w = -1
        for t in range(indptr[v], indptr[v + 1]):
            u = indices[t]
            if u != v and match[u] < 0 and ew[t] > best_w:
                best_w = ew[t]
                best = u
        if best >= 0:
            match[v] = best
            match[best] = v
        else:
            match[v] = v
    return np.array(match, dtype=np.int64)


def contract(graph: LevelGraph, match: np.ndarray) -> tuple[LevelGraph, np.ndarray]:
    """Contract matched pairs; return the coarse graph and the fine→coarse map.

    Coarse edge weights are the sums of fine multiplicities between the two
    merged clusters; self-loops vanish.
    """
    n = graph.n
    cmap = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if cmap[v] >= 0:
            continue
        cmap[v] = next_id
        partner = match[v]
        if partner != v:
            cmap[partner] = next_id
        next_id += 1
    nc = next_id
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    cu = cmap[rows]
    cv = cmap[graph.indices]
    keep = cu != cv
    cu, cv, ew = cu[keep], cv[keep], graph.eweights[keep]
    key = cu * np.int64(nc) + cv
    order = np.argsort(key, kind="stable")
    key, cu, cv, ew = key[order], cu[order], cv[order], ew[order]
    if key.size:
        uniq = np.empty(key.shape, dtype=bool)
        uniq[0] = True
        np.not_equal(key[1:], key[:-1], out=uniq[1:])
        group = np.cumsum(uniq) - 1
        summed = np.zeros(group[-1] + 1, dtype=np.int64)
        np.add.at(summed, group, ew)
        cu, cv, ew = cu[uniq], cv[uniq], summed
    counts = np.bincount(cu, minlength=nc)
    indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    vweights = np.zeros(nc, dtype=np.int64)
    np.add.at(vweights, cmap, graph.vweights)
    coarse = LevelGraph(indptr=indptr, indices=cv, eweights=ew, vweights=vweights)
    return coarse, cmap

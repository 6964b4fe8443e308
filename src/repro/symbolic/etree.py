"""Elimination tree computation (Liu's algorithm).

The etree of a symmetric pattern under a given ordering captures every
column dependency of the elimination process: column ``j``'s parent is the
smallest row index below the diagonal in column ``j`` of the Cholesky
factor.  For SuperFW it encodes which (super)nodes may be eliminated
concurrently (paper §3.3, Fig. 4c).

``analyze`` computes the etree once per candidate ordering, relabels it
by its :func:`postorder` (:func:`relabel_etree`) and composes the
ordering with that postorder, so every subtree of every plan is one
contiguous column range ending at its root.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.util.perm import check_permutation, invert_permutation


def elimination_tree(graph: Graph, perm: np.ndarray | None = None) -> np.ndarray:
    """Compute the etree of ``graph`` under ``perm`` (new labels).

    Uses Liu's nearly-linear algorithm with path compression: O(m α(n)).

    Returns
    -------
    numpy.ndarray
        ``parent[j]`` is the etree parent of column ``j`` in the *new*
        numbering, or ``-1`` for roots.
    """
    n = graph.n
    if perm is None:
        perm = np.arange(n, dtype=np.int64)
    else:
        check_permutation(perm, n)
        perm = np.asarray(perm, dtype=np.int64)
    iperm = invert_permutation(perm)
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        for i_old in graph.neighbors(perm[j]):
            r = iperm[i_old]
            if r >= j:
                continue
            # Walk r's ancestor chain with path compression.
            while True:
                a = ancestor[r]
                if a == j:
                    break
                ancestor[r] = j
                if a == -1:
                    parent[r] = j
                    break
                r = a
    return parent


def etree_children(parent: np.ndarray) -> list[list[int]]:
    """Children lists for an etree parent array."""
    children: list[list[int]] = [[] for _ in range(parent.shape[0])]
    for v, p in enumerate(parent.tolist()):
        if p >= 0:
            children[p].append(v)
    return children


def postorder(parent: np.ndarray) -> np.ndarray:
    """A postorder of the etree: children before parents, subtrees contiguous.

    Returns ``order`` with ``order[k]`` the k-th column visited by a
    depth-first walk that takes roots and children in ascending index
    order.  Relabelling column ``order[k]`` as ``k`` is an *equivalent*
    ordering — same etree up to relabelling (:func:`relabel_etree`),
    same fill (Liu, SIAM J. Matrix Anal. Appl. 1990) — in which every
    subtree is one index range ending at its root.
    """
    n = parent.shape[0]
    children = etree_children(parent)
    order = np.empty(n, dtype=np.int64)
    count = 0
    for root in range(n):
        if parent[root] != -1:
            continue
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order[count] = node
                count += 1
            else:
                stack.append((node, True))
                for c in reversed(children[node]):
                    stack.append((c, False))
    assert count == n
    return order


def relabel_etree(parent: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The etree ``parent`` after relabelling column ``order[k]`` as ``k``."""
    rank = invert_permutation(order)
    old = parent[order]
    return np.where(old >= 0, rank[np.maximum(old, 0)], -1)


def is_postordered(parent: np.ndarray) -> bool:
    """True when every parent index exceeds its child (topological order).

    Every etree produced by :func:`elimination_tree` has this property *by
    construction* (``parent[j]`` is the smallest below-diagonal row of
    column ``j``, hence ``> j``), so the supernodal pipeline accepts any
    vertex permutation.  It is weaker than a :func:`postorder`, which
    also keeps every subtree contiguous; ``analyze`` composes each
    ordering with one.  The check matters for hand-built parent arrays,
    e.g. in :func:`etree_levels`.
    """
    idx = np.flatnonzero(parent >= 0)
    return bool(np.all(parent[idx] > idx))


def etree_levels(parent: np.ndarray) -> np.ndarray:
    """Bottom-up level of each node: leaves 0, parents above children.

    ``level[v] = 1 + max(level of children)``; nodes on the same level are
    pairwise cousins and eliminate concurrently (paper §3.5, Fig. 5b).
    """
    n = parent.shape[0]
    level = np.zeros(n, dtype=np.int64)
    # Process children before parents; with a topological parent array a
    # single ascending sweep suffices, otherwise fall back to postorder.
    order = np.arange(n) if is_postordered(parent) else postorder(parent)
    for v in order:
        p = parent[v]
        if p >= 0:
            level[p] = max(level[p], level[v] + 1)
    return level

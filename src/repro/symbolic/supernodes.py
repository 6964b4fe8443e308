"""Supernode detection and cost-law amalgamation (paper §3.3).

A *fundamental supernode* is a maximal run of consecutive columns
``j, j+1, ..., j+s-1`` forming a chain in the etree whose factor columns
share one nested structure (``count[j] == count[j+1] + 1``).  Operating on
supernodes instead of columns turns every kernel into a blocked
(GEMM-shaped) operation.

:func:`amalgamate` then collapses whole etree subtrees into one block
wherever a cost model prices the collapsed block below its parts — the
supernodal analogue of amalgamation within a work budget (Ashcraft &
Grimes, ACM TOMS 1989), with the sweep's cost itself as the objective
rather than fill.  On a postordered etree a subtree is one column
range, so the result is again a partition into contiguous blocks.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.symbolic.fill import SymbolicFactor


def fundamental_ptr(parent: np.ndarray, col_counts: np.ndarray) -> np.ndarray:
    """Fundamental supernode boundaries of a column etree and its counts.

    Column ``j`` joins column ``j-1``'s supernode when ``j`` is its
    etree parent and ``count[j-1] == count[j] + 1``; the result is a
    partition of ``0..n-1`` into contiguous ranges.
    """
    n = parent.shape[0]
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    cols = np.arange(1, n, dtype=np.int64)
    joins = (parent[:-1] == cols) & (col_counts[:-1] == col_counts[1:] + 1)
    return np.concatenate(
        ([0], cols[~joins], [n])
    ).astype(np.int64)


def find_supernodes(sym: SymbolicFactor) -> np.ndarray:
    """Return ``snode_ptr``: supernode ``s`` owns columns ``[ptr[s], ptr[s+1])``.

    The fundamental supernodes of ``sym`` (:func:`fundamental_ptr`).
    """
    return fundamental_ptr(sym.parent, sym.col_counts)


def supernode_parents(parent: np.ndarray, snode_ptr: np.ndarray) -> np.ndarray:
    """Supernodal etree of a column etree ``parent`` (-1 for roots).

    The parent is the supernode containing the etree parent of the
    supernode's *last* column.
    """
    ns = snode_ptr.shape[0] - 1
    snode_of = np.repeat(np.arange(ns, dtype=np.int64), np.diff(snode_ptr))
    up = parent[snode_ptr[1:] - 1] if ns else np.empty(0, dtype=np.int64)
    return np.where(up >= 0, snode_of[np.maximum(up, 0)], -1)


def sweep_ops(b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``2b³ + 4b²r + 2br²``: the SuperFW ops of eliminating a ``b``-wide
    block with ``r`` panel rows (DiagUpdate, both PanelUpdates and the
    OuterUpdate; :func:`repro.symbolic.structure.superfw_snode_ops`)."""
    return 2 * b**3 + 4 * b * b * r + 2 * b * r * r


def amalgamate(
    sym: SymbolicFactor,
    snode_ptr: np.ndarray,
    price: Callable[[np.ndarray, int], np.ndarray],
) -> np.ndarray:
    """Collapse etree subtrees into one block where ``price`` says it pays.

    One bottom-up pass over the supernodal etree of ``snode_ptr``.  Each
    supernode ``s`` is priced two ways, from counts alone:

    * kept — its own block (width ``b``, panel rows ``|D(s)| + a``, with
      ``|D(s)|`` the subtree's columns below ``s`` and ``a`` the fill
      count of its last column, ``col_counts``) plus the cheapest
      pricing of each child subtree;
    * collapsed — the whole subtree as one block: width the subtree's
      column count, no descendants, and panel rows the subtree root's
      fill ``a``, the only rows above the subtree any of its columns
      reaches.

    ``price(ops, blocks)`` turns the sweep law's op count of ``blocks``
    blocks into seconds (the router's
    :func:`~repro.plan.router.sweep_seconds`); a subtree collapses when
    its collapsed price is strictly below its kept one.  The block
    ``A(s)`` the exact law charges is whole ancestor blocks, so the
    counts are an estimate; the exact op law is computed on the result.
    Only a subtree that is one contiguous range (every subtree of a
    postordered etree) collapses, so the result again partitions the
    columns into contiguous ranges.
    """
    ns = snode_ptr.shape[0] - 1
    if ns == 0:
        return snode_ptr
    parent = supernode_parents(sym.parent, snode_ptr)
    widths = np.diff(snode_ptr).astype(np.float64)
    # Ascending pass (parents outnumber their children): each subtree's
    # lowest supernode, supernode count and column count.
    first = list(range(ns))
    size = [1] * ns
    cols = np.diff(snode_ptr).tolist()
    up = parent.tolist()
    for s, p in enumerate(up):
        if p >= 0:
            size[p] += size[s]
            cols[p] += cols[s]
            first[p] = min(first[p], first[s])
    # Float counts: a collapsed subtree's b³ outgrows int64 near 1.6M
    # columns.
    sub = np.asarray(cols, dtype=np.float64)
    fill = sym.col_counts[snode_ptr[1:] - 1].astype(np.float64)
    kept = price(sweep_ops(widths, sub - widths + fill), 1).tolist()
    whole = price(sweep_ops(sub, fill), 1).tolist()
    collapse = [False] * ns
    below = [0.0] * ns  # cheapest pricing of s's child subtrees
    for s, p in enumerate(up):
        best = kept[s] + below[s]
        if whole[s] < best and first[s] == s - size[s] + 1:
            collapse[s], best = True, whole[s]
        if p >= 0:
            below[p] += best
    # Descending pass: a supernode inside a collapsed subtree is absorbed;
    # every other one starts a block at its own first column, or at its
    # subtree's first column when it collapsed.
    absorbed = [False] * ns
    starts = []
    for s in range(ns - 1, -1, -1):
        p = up[s]
        if p >= 0 and (absorbed[p] or collapse[p]):
            absorbed[s] = True
        else:
            starts.append(int(snode_ptr[first[s] if collapse[s] else s]))
    starts.sort()
    return np.asarray(starts + [int(snode_ptr[-1])], dtype=np.int64)

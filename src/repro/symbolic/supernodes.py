"""Supernode detection (paper §3.3).

A *fundamental supernode* is a maximal run of consecutive columns
``j, j+1, ..., j+s-1`` forming a chain in the etree whose factor columns
share one nested structure (``count[j] == count[j+1] + 1``).  Operating on
supernodes instead of columns turns every kernel into a blocked
(GEMM-shaped) operation.

:func:`relax_supernodes` additionally amalgamates small supernodes into
their parents — trading a bounded amount of extra (logically-∞) work for
larger, better-performing blocks, as relaxed supernodes do in sparse
direct solvers.  It merges only along etree chains (a parent with one
child), so no sibling's ancestor chain, and no hub label, grows.
"""

from __future__ import annotations

import numpy as np

from repro.symbolic.fill import SymbolicFactor


def find_supernodes(sym: SymbolicFactor) -> np.ndarray:
    """Return ``snode_ptr``: supernode ``s`` owns columns ``[ptr[s], ptr[s+1])``.

    Columns are grouped greedily left to right by the fundamental-supernode
    test; the result is a partition of ``0..n-1`` into contiguous ranges.
    """
    n = sym.n
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    starts = [0]
    for j in range(1, n):
        fundamental = (
            sym.parent[j - 1] == j
            and sym.col_counts[j - 1] == sym.col_counts[j] + 1
        )
        if not fundamental:
            starts.append(j)
    starts.append(n)
    return np.asarray(starts, dtype=np.int64)


def supernode_parents(sym: SymbolicFactor, snode_ptr: np.ndarray) -> np.ndarray:
    """Supernodal etree: parent supernode of each supernode (-1 for roots).

    The parent is the supernode containing the etree parent of the
    supernode's *last* column.
    """
    ns = snode_ptr.shape[0] - 1
    snode_of = np.empty(sym.n, dtype=np.int64)
    for s in range(ns):
        snode_of[snode_ptr[s] : snode_ptr[s + 1]] = s
    parent = np.full(ns, -1, dtype=np.int64)
    for s in range(ns):
        last = snode_ptr[s + 1] - 1
        p = sym.parent[last]
        if p >= 0:
            parent[s] = snode_of[p]
    return parent


def relax_supernodes(
    sym: SymbolicFactor,
    snode_ptr: np.ndarray,
    *,
    max_size: int = 64,
    small: int = 8,
) -> np.ndarray:
    """Amalgamate small supernodes up their etree chains.

    A range of at most ``small`` columns merges into the *next*
    supernode when that supernode is its etree parent (the parent of its
    last column is the next column), it is that parent's **only** child,
    and the merged size stays within ``max_size``; a merged range can
    merge again.  Only a chain merges, so no other supernode's ancestor
    chain — and no hub label — gains a column.  The only-child test is
    O(1): the parent is a chain whose every column has exactly one etree
    child.  Keeps block ranges contiguous, so the rest of the pipeline
    is oblivious to relaxation.
    """
    n = sym.n
    if n == 0:
        return snode_ptr
    parent = sym.parent
    # multi[j]: columns before j whose child count is not exactly one.
    nchild = np.bincount(parent[parent >= 0], minlength=n)
    multi = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nchild != 1, out=multi[1:])
    multi = multi.tolist()
    par = parent.tolist()
    bounds = snode_ptr.tolist()
    starts = [0]
    for b, c in zip(bounds[1:-1], bounds[2:]):
        a = starts[-1]
        chain = par[b - 1] == b and multi[c] == multi[b]
        if chain and b - a <= small and c - a <= max_size:
            continue
        starts.append(b)
    return np.asarray(starts + [n], dtype=np.int64)

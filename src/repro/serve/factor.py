"""Hub-label distances straight from the min-plus factor, no ``n²`` matrix.

A vertex's hub label lies inside its block's ancestor chain — its hubs
come from its own fundamental supernode and that supernode's etree
ancestors, all in the vertex's block or an ancestor block
(:mod:`repro.serve.hub_index`) — so the index needs only the distances
``D[s, chain(s)]`` and ``D[chain(s), s]`` of every supernode ``s`` —
the *chain blocks* — and nothing else of the dense matrix.
Following DPC (Planken et al., the paper's ref [33]) and H2H (Ouyang et
al., SIGMOD 2018), two passes over the plan's supernodal etree compute
them from the filled entries of the factor alone:

**Ascending pass** — a supernodal multifrontal DPC.  Supernode ``s``
owns a front over ``cols(s) ∪ rows(s)``, with ``rows(s)`` the plan's
vertex-level fill rows (``plan.snode_rows``).  The front gathers the
arcs whose lower endpoint lies in ``cols(s)`` plus the children's
update matrices (extend-add, ⊕ = min); then DiagUpdate closes the
``cols × cols`` block, the two PanelUpdates relax the ``rows × cols``
and ``cols × rows`` panels through it, and the OuterUpdate forms the
``rows × rows`` update matrix passed to the parent.  Afterwards
``F[c, y]`` (and ``F[y, c]``) is the shortest ``c → y`` distance over
paths whose inner vertices all lie in the subtree of ``s``.  When every
arc has a reverse arc of the same bits, every front is symmetric bit for
bit: the row panel is then the closed column panel's transpose and the
OuterUpdate runs the engine's symmetric staircase.

**Descending pass** — root to leaves.  A shortest path from ``v`` in
``cols(s)`` to an ancestor-chain vertex ``a`` first leaves the subtree
of ``s`` at some ``x``; the prefix runs inside the subtree, so by the
fill-path theorem ``x ∈ rows(s)``, and ``rows(s) ⊆ chain(parent(s))``
is already final.  Hence, per supernode::

    D[chain(p), s] = D[chain(p), rows] ⊗ F[rows, s]
    D[s, chain(p)] = F[s, rows] ⊗ D[rows, chain(p)]
    D[s, s]        = F[s, s] ⊕ F[s, rows] ⊗ D[rows, s]

the last two as one product over ``s ++ chain(p)``, once the first
has made ``D[rows, s]`` final.

The chain matrix ``D[chain(s), chain(s)]`` lives in one ``cmax × cmax``
buffer with the root's columns at the bottom-right: ``chain(s)`` in
ascending order is the contiguous range ``[cmax - |chain(s)|, cmax)``,
a depth-first walk writes each supernode's rows and columns just above
its parent's, and every chain block is a plain slice.

Every product runs through :mod:`repro.semiring.kernels` and the
ambient :class:`~repro.semiring.engine.SemiringGemmEngine`.  Both passes
are exact: on dyadic weights (sums exact in float64) every chain block
is bit-identical to the matching entries of the SuperFW sweep's matrix.
:func:`factor_pass_ops` is the passes' exact op law.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import OpCounter
from repro.resilience.errors import NegativeCycleError
from repro.semiring.engine import get_engine
from repro.semiring.kernels import (
    diag_update,
    outer_update,
    panel_update_cols,
    panel_update_rows,
)
from repro.symbolic.structure import SupernodalStructure
from repro.symbolic.supernodes import sweep_ops
from repro.util.perm import invert_permutation


def chain_lengths(structure: SupernodalStructure) -> np.ndarray:
    """``|chain(s)|``: vertices of ``s`` and of all its etree ancestors."""
    out = np.diff(structure.snode_ptr).tolist()
    parent = structure.parent.tolist()
    # Parents outnumber their children: a descending pass sees each
    # parent's final length before any child reads it.
    for s in range(structure.ns - 1, -1, -1):
        if parent[s] >= 0:
            out[s] += out[parent[s]]
    return np.asarray(out, dtype=np.int64)


def factor_pass_ops(
    structure: SupernodalStructure, snode_rows: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-supernode scalar ops of the ascending and descending passes.

    With ``b`` the supernode's width, ``r = len(snode_rows[s])`` and
    ``c = |chain(parent(s))|`` (0 at a root), the ascending pass costs
    ``2b³ + 4b²r + 2br²`` (DiagUpdate, two PanelUpdates, OuterUpdate)
    and the descending pass ``4brc + 2b²r`` (the column product,
    ``2brc``, and the row product over ``s ++ chain(p)``,
    ``2br(b + c)``).  The totals equal the passes' ``OpCounter``.
    """
    b = np.diff(structure.snode_ptr).astype(np.int64)
    r = np.array([rows.shape[0] for rows in snode_rows], dtype=np.int64)
    c = chain_lengths(structure) - b
    return sweep_ops(b, r), 4 * b * r * c + 2 * b * b * r


def _arcs_mirrored(tail: np.ndarray, head: np.ndarray,
                   weight: np.ndarray) -> bool:
    """Whether every arc has a reverse arc of the same weight, bit for bit.

    Then every front is symmetric bit for bit, as the sweep's start
    matrix is (``_start_matrix`` in :mod:`repro.core.superfw`), and the
    ascending pass computes each front's mirror halves once.  ``O(nnz
    log nnz)``: the arcs sorted by ``(tail, head, bits)`` must equal the
    reversed arcs sorted the same way.
    """
    bits = weight.view(f"u{weight.itemsize}")
    fwd = np.lexsort((bits, head, tail))
    rev = np.lexsort((bits, tail, head))
    return bool(
        np.array_equal(tail[fwd], head[rev])
        and np.array_equal(head[fwd], tail[rev])
        and np.array_equal(bits[fwd], bits[rev])
    )


def factor_chain_blocks(
    structure: SupernodalStructure,
    snode_rows: list[np.ndarray],
    graph,
    perm: np.ndarray,
    *,
    dtype=np.float64,
    counter: OpCounter | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every supernode's chain blocks, from ``graph``'s weights and the plan.

    ``graph`` is the graph the plan orders — for a plan with a
    reduction trail, the reduced graph the trail's ``apply`` returns —
    and ``perm`` is the plan's ordering.  Returns
    ``(to_flat, from_flat, block_ptr)``:
    supernode ``s`` owns ``[block_ptr[s], block_ptr[s+1])`` of both flat
    arrays, a row-major ``b × |chain(s)|`` block whose row ``t`` holds
    ``D[lo_s + t, chain(s)]`` (``to_flat``) or ``D[chain(s), lo_s + t]``
    (``from_flat``), with ``chain(s)`` in ascending position order.
    Ops land in ``counter`` under ``diag``/``panel``/``outer`` (ascending)
    and ``descend``.  A negative cycle raises
    :class:`~repro.resilience.errors.NegativeCycleError`.
    """
    counter = counter if counter is not None else OpCounter()
    ns = structure.ns
    ptr = structure.snode_ptr.tolist()
    parent = structure.parent.tolist()
    children = structure.children
    n = structure.n

    # Front layout of supernode s: its columns [lo, hi), then its fill
    # rows.  ``place(t, v)`` is the front position of permuted vertex v
    # in supernode t's front, for whole arrays at once: fill rows are
    # found by one searchsorted over the (t, row) keys of every front.
    widths = np.diff(structure.snode_ptr)
    rows_ptr = np.zeros(ns + 1, dtype=np.int64)
    np.cumsum([rows.shape[0] for rows in snode_rows], out=rows_ptr[1:])
    rows_flat = (np.concatenate(snode_rows) if ns
                 else np.zeros(0, dtype=np.int64))
    row_owner = np.repeat(np.arange(ns, dtype=np.int64), np.diff(rows_ptr))
    row_keys = row_owner * n + rows_flat

    def place(t: np.ndarray, v: np.ndarray) -> np.ndarray:
        lo = structure.snode_ptr[t]
        fill = np.searchsorted(row_keys, t * n + v) - rows_ptr[t] + widths[t]
        return np.where(v < lo + widths[t], v - lo, fill)

    # Arcs in permuted numbering, grouped by the supernode of their
    # lower endpoint — the front that assembles them.  Self-loops are
    # dropped and the diagonal is 0, as in ``to_dense_dist``.
    iperm = invert_permutation(np.asarray(perm, dtype=np.int64))
    tail = iperm[np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))]
    head = iperm[np.asarray(graph.indices, dtype=np.int64)]
    weight = np.asarray(graph.weights, dtype=dtype)
    keep = tail != head
    tail, head, weight = tail[keep], head[keep], weight[keep]
    mirror = _arcs_mirrored(tail, head, weight)
    owner = structure.snode_of[np.minimum(tail, head)]
    order = np.argsort(owner, kind="stable")
    owner, weight = owner[order], weight[order]
    tail, head = place(owner, tail[order]), place(owner, head[order])
    arc_ptr = np.zeros(ns + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=ns), out=arc_ptr[1:])
    arc_ptr = arc_ptr.tolist()
    # Where each supernode's fill rows sit in its parent's front (roots'
    # rows are empty).
    up = place(structure.parent[row_owner], rows_flat)
    rows_at = rows_ptr.tolist()

    # Ascending pass: supernodal multifrontal DPC.
    factor: list[tuple[np.ndarray, np.ndarray, np.ndarray] | None] = [None] * ns
    updates: dict[int, np.ndarray] = {}
    for s in range(ns):
        b = ptr[s + 1] - ptr[s]
        r = rows_at[s + 1] - rows_at[s]
        front = np.full((b + r, b + r), np.inf, dtype=dtype)
        a0, a1 = arc_ptr[s], arc_ptr[s + 1]
        if a1 > a0:
            front[tail[a0:a1], head[a0:a1]] = weight[a0:a1]
        diag = front[:b, :b]
        np.fill_diagonal(diag, 0.0)
        for child in children[s]:
            where = np.ix_(*(up[rows_at[child]:rows_at[child + 1]],) * 2)
            front[where] = np.minimum(front[where], updates.pop(child))
        counter.add("diag", diag_update(diag))
        lowest = diag.diagonal()
        if lowest.min() < 0:
            raise NegativeCycleError(
                witness=int(perm[ptr[s] + int(np.argmin(lowest))])
            )
        col, row = front[b:, :b], front[:b, b:]
        if r:
            counter.add("panel", panel_update_cols(col, diag))
            if mirror:
                # A symmetric front stays symmetric bit for bit: the row
                # panel is the column panel's transpose, and the law
                # still charges both PanelUpdates.
                row[...] = col.T
                counter.add("panel", 2 * b * b * r)
            else:
                counter.add("panel", panel_update_rows(row, diag))
            update = front[b:, b:]
            counter.add(
                "outer", outer_update(update, col, row, symmetric=mirror)
            )
            if parent[s] >= 0:
                updates[s] = update
        factor[s] = (diag.copy(), row.copy(), col.copy())

    # Descending pass: depth-first from each root through one buffer
    # holding the current chain matrix (see the module docstring).
    chain_len = chain_lengths(structure)
    cmax = int(chain_len.max()) if ns else 0
    buf = np.empty((cmax, cmax), dtype=dtype)
    offset = cmax - chain_len
    # Buffer slot of every permuted vertex: its supernode's chain offset
    # plus its offset inside the supernode.
    snode_of = structure.snode_of
    slot = offset[snode_of] + (np.arange(n) - structure.snode_ptr[snode_of])
    block_ptr = np.zeros(ns + 1, dtype=np.int64)
    np.cumsum(widths * chain_len, out=block_ptr[1:])
    to_flat = np.empty(int(block_ptr[-1]), dtype=dtype)
    from_flat = np.empty_like(to_flat)
    gemm = get_engine().gemm
    offset = offset.tolist()
    bounds = block_ptr.tolist()
    stack = [s for s in range(ns - 1, -1, -1) if parent[s] < 0]
    while stack:
        s = stack.pop()
        fss, fsr, frs = factor[s]
        factor[s] = None
        o = offset[s]
        e = o + fss.shape[0]  # the parent's chain is buf[e:, e:]
        buf[o:e, o:e] = fss
        if e < cmax:
            b, r = fsr.shape
            at = slot[rows_flat[rows_at[s]:rows_at[s + 1]]]
            # Column first: D[chain(p), s] = D[chain(p), rows] ⊗ F[rows, s].
            gemm(buf[e:, at], frs, out=buf[e:, o:e])
            # Then the whole row in one product, since D[rows, s] is now
            # final too: D[s, s ++ chain(p)] = F[s, s ++ ∞] ⊕ F[s, rows] ⊗
            # D[rows, s ++ chain(p)].
            buf[o:e, e:] = np.inf
            gemm(fsr, buf[at, o:], out=buf[o:e, o:], accumulate=True)
            counter.add("descend", 4 * b * r * (cmax - e) + 2 * b * b * r)
        lo_b, hi_b = bounds[s], bounds[s + 1]
        to_flat[lo_b:hi_b].reshape(e - o, cmax - o)[...] = buf[o:e, o:]
        from_flat[lo_b:hi_b].reshape(e - o, cmax - o)[...] = buf[o:, o:e].T
        stack.extend(children[s])
    return to_flat, from_flat, block_ptr

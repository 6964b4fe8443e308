"""Multifrontal min-plus factorization (paper §6's scheduling variants).

The paper notes that sparse factorizations come in right-looking,
left-looking, and *multifrontal* schedules, and that SuperFW "closely
resembles the right-looking variant".  This module implements the
multifrontal schedule for the factor-only (DPC) computation:

* each supernode owns a dense **frontal matrix** over its columns plus
  their fill rows;
* children pass **update matrices** (min-plus Schur complements) up the
  etree, ⊕-assembled into the parent's front (*extend-add*);
* eliminating the supernode inside its front is a columnwise rank-1
  trailing-update loop — *elimination* semantics (intermediates below
  both endpoints), the factor-only counterpart of SuperFW's closure
  kernels.

Because ⊕ is associative and commutative, the multifrontal schedule
produces *bit-identical* factor entries to the right-looking DPC sweep —
the classical equivalence, which :mod:`tests.test_multifrontal` asserts.
Its practical appeal carries over from linear algebra: all work happens
in small dense fronts (locality), and disjoint subtrees only ever touch
their own fronts (parallelism without shared trailing state).
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import OpCounter
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.plan.plan import Plan, ensure_plan
from repro.semiring.engine import get_engine


def multifrontal_dpc(
    graph: Graph | DiGraph,
    *,
    plan: Plan | None = None,
    counter: OpCounter | None = None,
    **plan_options,
) -> tuple[np.ndarray, Plan]:
    """Factor-only elimination via the multifrontal schedule.

    Returns ``(w, plan)`` where ``w`` is the permuted dense matrix whose
    *filled* entries carry the DPC values (shortest distances using
    intermediates below the smaller endpoint); other entries are the
    original weights/∞.  Identical to phase 1 of
    :class:`~repro.core.treewidth.TreewidthAPSP`, computed tree-bottom-up
    through frontal matrices instead of a right-looking sweep.
    """
    plan, _ = ensure_plan(plan, graph, **plan_options)
    counter = counter if counter is not None else OpCounter()
    structure = plan.structure
    perm = plan.ordering.perm
    w = graph.to_dense_dist()[np.ix_(perm, perm)]
    if np.any(np.diag(w) < 0):
        raise ValueError("graph contains a negative-weight cycle")

    # Vertex-level fill rows per supernode (union over its columns) —
    # computed once during analyze; the legacy symbolic recompute only
    # runs for plans that somehow lack them.
    sym_struct = plan.snode_rows if plan.snode_rows else plan_struct_rows(plan)

    #: update matrices waiting for their parent, keyed by child supernode.
    pending: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    for s in range(structure.ns):
        lo, hi = structure.col_range(s)
        b = hi - lo
        urows = sym_struct[s]  # fill rows above the supernode, ascending
        fidx = np.concatenate([np.arange(lo, hi), urows])
        nf = fidx.shape[0]
        # Assemble the front: original/partial entries touching the pivot
        # columns...
        front = np.full((nf, nf), np.inf)
        front[:b, :] = w[lo:hi, :][:, fidx]
        front[:, :b] = w[fidx, :][:, lo:hi]
        # ...plus the children's update matrices (extend-add, ⊕).
        for child in structure.children[s]:
            upd_rows, upd = pending.pop(child)
            pos = np.searchsorted(fidx, upd_rows)
            assert np.array_equal(fidx[pos], upd_rows), "fill not nested"
            sub = front[np.ix_(pos, pos)]
            np.minimum(sub, upd, out=sub)
            front[np.ix_(pos, pos)] = sub
        # Eliminate the pivot columns inside the front, columnwise, with
        # *elimination* semantics: pivot ``t`` updates only the trailing
        # submatrix (intermediates below both endpoints — DPC), unlike
        # SuperFW's DiagUpdate which closes the whole block (intermediates
        # below ``k`` only).  This is what makes the multifrontal factor
        # bit-identical to the right-looking vertex sweep.
        ops = 0
        workspace = get_engine().workspace
        for t in range(b):
            if t + 1 >= nf:
                break
            r = nf - t - 1
            trailing = front[t + 1 :, t + 1 :]
            cand = workspace.buffer("mf-elim", (r, r), front.dtype)
            np.add(front[t + 1 :, t : t + 1], front[t : t + 1, t + 1 :], out=cand)
            np.minimum(trailing, cand, out=trailing)
            ops += 2 * r * r
        counter.add("eliminate", ops)
        # Scatter the factor rows/columns of this supernode.
        w[np.ix_(fidx[:b], fidx)] = np.minimum(
            w[np.ix_(fidx[:b], fidx)], front[:b, :]
        )
        w[np.ix_(fidx, fidx[:b])] = np.minimum(
            w[np.ix_(fidx, fidx[:b])], front[:, :b]
        )
        # Pass the Schur complement up (roots simply drop it).
        parent = structure.parent[s]
        if nf > b and parent >= 0:
            pending[s] = (urows, front[b:, b:])
    if np.any(np.diag(w) < 0):
        raise ValueError("graph contains a negative-weight cycle")
    return w, plan


def plan_struct_rows(plan: Plan) -> list[np.ndarray]:
    """Vertex-level fill rows per supernode (strictly above it, sorted).

    Plans built by :func:`repro.plan.analyze` already carry these as
    ``plan.snode_rows``; this fallback re-derives them with a fresh
    symbolic pass for hand-assembled plans that lack them.
    """
    if plan.snode_rows:
        return plan.snode_rows
    structure = plan.structure
    pattern = plan.pattern
    from repro.symbolic.fill import symbolic_cholesky

    sym = symbolic_cholesky(pattern, plan.ordering.perm)
    out: list[np.ndarray] = []
    for s in range(structure.ns):
        lo, hi = structure.col_range(s)
        cols = [sym.col_struct[j] for j in range(lo, hi)]
        if cols:
            rows = np.unique(np.concatenate(cols))
            rows = rows[rows >= hi]
        else:
            rows = np.empty(0, dtype=np.int64)
        out.append(rows)
    return out

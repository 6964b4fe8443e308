"""2-hop hub-label index seeded from the SuperFW separator hierarchy.

The paper's conclusion asks where SuperFW sits in an APSP "hierarchy of
methods"; this module is the serving-tier answer.  A route service does
not want the dense ``n²`` matrix per request — it wants *labels*: for
every vertex ``v``, a small set of hubs ``H(v)`` with exact distances
``d(v → h)`` and ``d(h → v)``, such that every shortest path from ``u``
to ``v`` passes through some hub in ``H(u) ∩ H(v)``.  A query is then

    dist(u, v) = min over h in H(u) ∩ H(v) of d(u → h) + d(h → v)

— the classic 2-hop / pruned-landmark scheme, with SuperFW's nested
dissection separators as the hubs.

**Why the separator hierarchy covers.**  In the fill-reducing ordering,
the maximum-numbered vertex of any shortest path between ``u`` and ``v``
is a common elimination-tree ancestor of both (the same fact DPC / P3C,
the paper's ref [33], and the factor passes of :mod:`repro.serve.factor`
rest on).  Every etree ancestor of a vertex in supernode ``s`` lies
either at a greater-or-equal position inside ``s`` itself or inside one
of ``s``'s ancestor supernodes — supernodes are exactly contiguous runs
of the vertex etree chain, and ``parent(s) > s`` always.  So taking

    H(v) = { positions ≥ p(v) in snode(v) }  ∪  vertices of A(snode(v))

(with ``p(v)`` the permuted position of ``v``) is a superset of the
etree-ancestor hub set and therefore a *valid* 2-hop cover.  The extra
vertices are harmless: every label distance is exact, so any hub only
ever contributes ``d(u→h) + d(h→v) ≥ dist(u, v)`` by the triangle
inequality.  Label sizes are bounded by the separator-chain length —
the quantity small nested-dissection separators directly minimize.
The supernodes here are the fundamental supernodes of the plan's
column etree (:func:`_label_nodes`), not the blocks the sweep's cost
law amalgamates: a block collapsing a subtree would put the whole
subtree on every member's chain.

**Why the join is a shared suffix.**  Written as a sequence, the chain
of supernode ``s`` is ``chain(s) = [lo_s .. hi_s) ++ chain(parent(s))``
and ``H(v)`` is the suffix of ``chain(snode(v))`` starting at ``v``'s
own position.  Two chains share exactly the chain of the supernodes'
etree LCA ``a``: the parts below ``a`` lie on disjoint tree paths.  So
``H(u) ∩ H(v)`` is the common tail of both labels, of length
``min(|H(u)|, |H(v)|, |chain(a)|)``, and :meth:`HubLabelIndex.query_many`
answers each pair by lining up the last ``L`` entries of both labels —
no keys, sort or ``searchsorted``.  The LCA is a range-minimum query
over the etree's depth-first preorder (a sparse table of shallowest
nodes), a fixed dozen numpy passes per batch whatever the depth.

**Reduction trails join the etree.**  A plan analyzed with
``reduce=True`` orders only the reduced graph; the vertices the
reduction eliminated (:mod:`repro.ordering.reduce`) still need labels.
The trail reads the symmetric pattern, directed graph or not, so
eliminating ``v`` makes its quotient neighborhood a clique of the
remaining pattern; that neighborhood lies on one root path of the
etree, and ``v``'s label is ``[v] ++ H(q)`` for its lowest neighbor
``q`` — the same set as the union of its neighbors' labels, a valid
cover by induction on the elimination order.  Hub keys follow an
*extended order* — trail events first, in elimination order, then the
reduced permutation — so every label still ascends along its chain,
and ``v`` becomes an etree leaf below ``q``
(:func:`_extended_etree`).  When ``q`` sits at offset ``t > 0`` inside
supernode ``s``, ``v`` shares only ``chain(s)[t:]``; the extended etree
splits ``s`` at ``t`` into a chain of pieces, so that every node's
chain is a whole suffix of its parent's and the join's
``|chain(lca)|`` stays exact.  Each tree of this extended etree is one
weak component of the graph, and one shard of the index.

**Where the label distances come from.**  A session with no published
epoch gets its labels from the factor (:mod:`repro.serve.factor`): an
ascending supernodal DPC and a descending chain pass compute the chain
block of every amalgamated block, which holds each label distance of
its vertices (their hubs lie in the block or its ancestor blocks), on
the weights
:meth:`~repro.ordering.reduce.ReductionTrail.apply` leaves on the
reduced graph, and the trail is then unreduced in label space
(:func:`_unreduce_labels`), with no solve and no ``n x n`` array.  Once
the session has published an epoch, the labels are sliced from that
epoch instead (solving first if a structural commit dropped the plan),
in two flat ``O(total label entries)`` gathers.  Everything but the
label distances depends on the plan alone and is built once per plan
(:func:`_label_structure`), so a new epoch's index costs the gathers.
Both sources are exact;
on dyadic weights (sums exact in float64) a factor-built index is
bit-identical to the epoch-sliced one, and in general each label
distance may differ from the epoch's entry by rounding.

Storage is CSR over *original* vertex ids: ``ptr``/``hubs``/``dto``/
``dfrom``, with hubs kept as keys of the extended order so every label
array is sorted ascending.
"""

from __future__ import annotations

import numpy as np

from repro.obs import get_tracer, phase
from repro.obs.metrics import OpCounter
from repro.plan.session import APSPSession
from repro.resilience.checkpoint import weights_sha
from repro.resilience.errors import NegativeCycleError
from repro.serve.factor import chain_lengths, factor_chain_blocks
from repro.symbolic.supernodes import fundamental_ptr, supernode_parents

#: Pairs per :meth:`HubLabelIndex.all_pairs` block.
_ALL_PAIRS_BLOCK = 1 << 16


def _vertex_ids(values) -> np.ndarray:
    """``values`` as a flat int64 id array; a non-whole id is a ``ValueError``.

    A plain ``astype`` would truncate ``1.9`` to vertex ``1`` and answer
    a pair nobody asked for.  Range checks stay with the caller, which
    knows ``n``.
    """
    arr = np.asarray(values).ravel()
    if arr.dtype.kind not in "iub":
        try:
            num = arr.astype(np.float64)
        except (TypeError, ValueError):
            raise ValueError(
                f"vertex ids must be integers, not {arr.dtype}"
            ) from None
        bad = ~(np.isfinite(num) & (num == np.trunc(num)))
        if bad.any():
            raise ValueError(
                f"vertex id {arr[bad][0]!r} is not a whole number"
            )
        arr = num
    return arr.astype(np.int64, copy=False)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` over ``zip(starts, counts)``."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total, dtype=np.int64) + np.repeat(
        starts - (ends - counts), counts
    )


def _lifting(parent: np.ndarray):
    """Binary-lifting tables of a forest whose parents outnumber children.

    Returns ``(up, depth, root)``: ``up[j, s]`` is the ``2**j``-th
    ancestor of ``s`` (roots are their own ancestors), ``depth[s]``
    counts the proper ancestors of ``s`` and ``root[s]`` is the root of
    its tree.  Pointer jumping: each pass doubles every jump and adds
    the depth covered by the jump it lands on, ``~log₂(depth)`` passes.
    """
    ns = parent.shape[0]
    jump = np.where(parent >= 0, parent, np.arange(ns, dtype=np.int64))
    depth = (parent >= 0).astype(np.int64)
    up = [jump]
    while True:
        nxt = jump[jump]
        if np.array_equal(nxt, jump):
            break
        depth = depth + depth[jump]
        jump = nxt
        up.append(jump)
    return np.stack(up), depth, jump


def _preorder(parent: np.ndarray, anc: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """Depth-first preorder numbers of a forest, siblings in id order.

    ``anc`` lists every node's root path (the node first), ``hops`` its
    length.  A node's subtree size is the number of root paths through
    it, and its preorder number sums, along its root path, one per
    non-root step plus the sizes of the siblings it follows.
    """
    nodes = parent.shape[0]
    size = np.bincount(anc, minlength=nodes)
    by_parent = np.lexsort((np.arange(nodes), parent))
    before = np.cumsum(size[by_parent]) - size[by_parent]
    group = np.searchsorted(parent[by_parent], parent[by_parent])
    skip = np.empty(nodes, dtype=np.int64)
    skip[by_parent] = before - before[group]
    return np.add.reduceat((skip + (parent >= 0))[anc], np.cumsum(hops) - hops)


def _span_table(order: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Sparse table of shallowest nodes over the sequence ``order``.

    ``span[j, i]`` is a node of least depth among
    ``order[i : i + 2**j]`` (windows running past the end are cut
    there), for every ``2**j`` up to the sequence length.
    """
    nodes = order.shape[0]
    span = [order]
    while 1 << len(span) <= nodes:
        prev = span[-1]
        nxt = prev[np.minimum(np.arange(nodes) + (1 << (len(span) - 1)),
                              nodes - 1)]
        span.append(np.where(depth[nxt] < depth[prev], nxt, prev))
    return np.stack(span)


def _label_nodes(plan) -> tuple[np.ndarray, np.ndarray]:
    """Column runs and parents of the etree the hub labels follow.

    The fundamental supernodes of the plan's postordered column etree
    (:func:`~repro.symbolic.supernodes.fundamental_ptr`), not the
    amalgamated blocks of ``plan.structure``: a block that collapses a
    subtree would put every column of the subtree on each member's
    chain.  A plan loaded from a file older than v5 stores no column
    etree, and its labels follow its supernodes.
    """
    if plan.etree is None:
        st = plan.structure
        return st.snode_ptr, st.parent
    ptr = fundamental_ptr(plan.etree, plan.col_counts)
    return ptr, supernode_parents(plan.etree, ptr)


def _extended_etree(snode_ptr, snode_parent, trail, key_of: np.ndarray):
    """Key runs and parents of the label etree extended by the trail.

    ``snode_ptr`` and ``snode_parent`` are the label etree's supernodes
    (:func:`_label_nodes`).  Returns ``(node_ptr, parent)``: node ``x``
    owns the hub keys ``[node_ptr[x], node_ptr[x+1])`` and its chain is
    its own run followed by its parent's chain.  Nodes ``0..ne-1`` are
    the trail's events, one key each.  A trail vertex hangs below its
    lowest-keyed quotient neighbor ``q``, so its label is ``[v] ++
    H(q)``; it is a root when it had no neighbor.  The remaining nodes
    cover the reduced keys supernode by supernode; a supernode below
    which a trail vertex hangs at offset ``t > 0`` is split at ``t``
    into a chain of pieces, so that every node's chain is a whole
    suffix of its parent's and the join's ``|chain(lca)|`` stays the
    shared length.
    """
    ne = 0 if trail is None else trail.n_events
    snode_of = np.repeat(np.arange(snode_ptr.shape[0] - 1, dtype=np.int64),
                         np.diff(snode_ptr))
    snode_ptr = ne + snode_ptr
    hang = np.full(ne, -1, dtype=np.int64)
    if ne:
        sizes = [nbrs.shape[0] for nbrs in trail.nbrs]
        low = np.full(ne, key_of.shape[0], dtype=np.int64)
        np.minimum.at(
            low,
            np.repeat(np.arange(ne, dtype=np.int64), sizes),
            key_of[np.concatenate(trail.nbrs)],
        )
        hang = np.where(low < key_of.shape[0], low, -1)
    node_ptr = np.unique(np.concatenate(
        [np.arange(ne, dtype=np.int64), snode_ptr, hang[hang >= ne]]
    ))
    nodes = node_ptr.shape[0] - 1
    node_of_key = np.repeat(np.arange(nodes, dtype=np.int64), np.diff(node_ptr))
    parent = np.empty(nodes, dtype=np.int64)
    parent[:ne] = np.where(hang >= 0, node_of_key[hang], -1)
    # A piece's parent is the next piece of its supernode; the top piece
    # continues at the bottom piece of the supernode's etree parent.
    s = snode_of[node_ptr[ne:-1] - ne]
    up = snode_parent[s]
    top = node_ptr[ne + 1:] == snode_ptr[s + 1]
    parent[ne:] = np.where(
        top,
        np.where(up >= 0, node_of_key[snode_ptr[np.maximum(up, 0)]], -1),
        np.arange(ne + 1, nodes + 1, dtype=np.int64),
    )
    return node_ptr, parent


def _unreduce_labels(trail, applied, hub_orig, ptr, hubs, dto, dfrom,
                     depth) -> None:
    """Fill the labels of a trail's eliminated vertices in place.

    :meth:`~repro.ordering.reduce.AppliedReduction.unreduce` restricted
    to label entries: for ``v`` with neighbors ``n_j`` and every hub
    ``h`` of ``H(v) = [v] ++ H(q)``,

        d(v → h) = min_j  w(v → n_j) + d(n_j → h)
        d(h → v) = min_j  d(h → n_j) + w(n_j → v)

    Every ``n_j`` lies in ``H(q)``, whose suffix from ``n_j`` is
    ``H(n_j)``: ``d(n_j → h)`` is read from ``n_j``'s label when ``h``
    lies above ``n_j`` and from ``h``'s label (at hub ``n_j``) when it
    lies below — the same operands unreduce reads from the full matrix.
    The neighbors and hubs of a vertex are its proper etree ancestors,
    so the vertices of one extended-etree depth (``depth[r]`` for event
    ``r``) are filled together, shallowest first.  A directed graph's
    missing arcs weigh ``inf`` and its arcs may be negative: the
    formula is the min-plus recurrence of unreduce, exact whenever no
    cycle is negative, and a negative cycle has already raised in
    :meth:`~repro.ordering.reduce.ReductionTrail.apply` (a negative
    shortcut self-loop) or in the factor (a negative diagonal).
    """
    sizes = np.array([nbrs.shape[0] for nbrs in trail.nbrs], dtype=np.int64)
    first = np.cumsum(sizes) - sizes
    nbr = np.concatenate(trail.nbrs)
    w_out = np.concatenate(applied.w_out)
    w_in = np.concatenate(applied.w_in)
    width = np.diff(ptr)
    verts = np.asarray(trail.verts, dtype=np.int64)
    dto[ptr[verts]] = 0.0
    dfrom[ptr[verts]] = 0.0
    # H(q) is v's label after its own key.
    tail = width[verts] - 1
    order = np.argsort(depth, kind="stable")
    cuts = np.flatnonzero(np.diff(depth[order])) + 1
    for ev in np.split(order, cuts):
        nj_count, label_len = sizes[ev], tail[ev]
        cnt = label_len * nj_count
        total = int(cnt.sum())
        if not total:
            continue
        # One term per (event, hub i of H(q), neighbor j), grouped by
        # (event, i) for the min.
        pair = _ranges(first[ev], nj_count)
        pair_first = np.cumsum(nj_count) - nj_count
        term_ev = np.repeat(np.arange(ev.shape[0], dtype=np.int64), cnt)
        loc = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        j_count = nj_count[term_ev]
        i = loc // j_count
        p = pair[pair_first[term_ev] + loc % j_count]
        n_j = nbr[p]
        k = label_len[term_ev] - width[n_j]  # n_j's index in H(q)
        h = hub_orig[hubs[ptr[verts[ev]][term_ev] + 1 + i]]
        below = i < k
        at = np.where(below, ptr[h] + (k - i), ptr[n_j] + (i - k))
        fwd = np.where(below, dfrom[at], dto[at])  # d(n_j → h)
        bwd = np.where(below, dto[at], dfrom[at])  # d(h → n_j)
        group = np.repeat(nj_count, label_len)
        starts = np.cumsum(group) - group
        dest = _ranges(ptr[verts[ev]] + 1, label_len)
        dto[dest] = np.minimum.reduceat(w_out[p] + fwd, starts)
        dfrom[dest] = np.minimum.reduceat(bwd + w_in[p], starts)


class _LabelStructure:
    """Everything of an index that depends on the plan alone.

    The label CSR (``ptr``/``hubs``, hub keys per original vertex), the
    key-to-vertex map ``perm``, the extended etree's join tables and the
    shard of every vertex: only ``dto``/``dfrom`` depend on the weights.
    ``pos_count`` is each key's label length and ``ne`` the trail's
    event count.  Built once per plan (:func:`_label_structure`), so a
    new epoch's index costs the two gathers of :meth:`gather`.
    """

    __slots__ = ("n", "ne", "perm", "ptr", "hubs", "pos_count", "comp",
                 "ncomp", "node", "parent", "depth", "pre", "span",
                 "chain_len", "_flat")

    def __init__(self, plan) -> None:
        tracer = get_tracer()
        trail = plan.trail
        n = self.n = plan.n
        ne = self.ne = trail.n_events if trail is not None else 0
        perm = np.array(plan.ordering.perm, dtype=np.int64)
        # Hub keys in the extended order: key r < ne names the vertex the
        # trail's r-th event eliminated, key ne + p the reduced vertex at
        # permuted position p.  ``hub_orig`` maps a key to its original
        # vertex id.
        hub_orig = perm if trail is None else np.concatenate(
            [trail.verts, np.asarray(trail.kept, dtype=np.int64)[perm]]
        )
        key_of = np.empty(n, dtype=np.int64)
        key_of[hub_orig] = np.arange(n, dtype=np.int64)

        with tracer.span("hub-index-labels"):
            node_ptr, parent = _extended_etree(
                *_label_nodes(plan), trail, key_of
            )
            # Chain table: node x's chain is the key runs of x, parent(x),
            # parent²(x), ... — its k-th node is x's k-th ancestor, read
            # off the binary-lifting table bit by bit of k.
            up, depth, root = _lifting(parent)
            nodes = parent.shape[0]
            widths = np.diff(node_ptr)
            hops = depth + 1
            anc = np.repeat(np.arange(nodes, dtype=np.int64), hops)
            k = _ranges(np.zeros(nodes, dtype=np.int64), hops)
            for j in range(up.shape[0]):
                step = ((k >> j) & 1).astype(bool)
                anc[step] = up[j, anc[step]]
            chain_pos = _ranges(node_ptr[anc], widths[anc])
            chain_len = np.add.reduceat(widths[anc], np.cumsum(hops) - hops)
            chain_ptr = np.cumsum(chain_len) - chain_len
            # Key h at offset t of node x labels with chain(x)[t:].
            node_of_key = np.repeat(np.arange(nodes, dtype=np.int64), widths)
            offset = np.arange(n, dtype=np.int64) - node_ptr[node_of_key]
            pos_start = chain_ptr[node_of_key] + offset
            pos_count = chain_len[node_of_key] - offset
            counts = np.empty(n, dtype=np.int64)
            counts[hub_orig] = pos_count
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=ptr[1:])
            hubs = np.empty(int(ptr[-1]), dtype=np.int64)
            hubs[_ranges(ptr[hub_orig], pos_count)] = (
                chain_pos[_ranges(pos_start, pos_count)]
            )

        with tracer.span("hub-index-shards"):
            # Each extended etree tree is one (weak) component of the
            # graph — a supernode is a run of the column etree, and a
            # trail vertex hangs below a neighbor in the symmetric
            # pattern — so the shard is the vertex's tree root, numbered
            # in order of each tree's smallest vertex.
            node = np.empty(n, dtype=np.int64)
            node[hub_orig] = node_of_key
            _, first, inv = np.unique(
                root[node], return_index=True, return_inverse=True
            )
            ncomp = first.shape[0]
            rank = np.empty(ncomp, dtype=np.int64)
            rank[np.argsort(first)] = np.arange(ncomp)
            pre = _preorder(parent, anc, hops)
            order = np.empty(nodes, dtype=np.int64)
            order[pre] = np.arange(nodes, dtype=np.int64)
            self.span = _span_table(order, depth)
        self.perm, self.ptr, self.hubs = hub_orig, ptr, hubs
        self.pos_count, self.chain_len = pos_count, chain_len
        self.comp, self.ncomp = rank[inv.ravel()], ncomp
        self.node, self.parent, self.depth, self.pre = node, parent, depth, pre
        for arr in (hub_orig, ptr, hubs, pos_count, self.comp, node,
                    parent, depth, pre, self.span, chain_len):
            arr.setflags(write=False)
        self._flat = None

    def gather(self, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every label's ``(dto, dfrom)`` read off the ``n x n`` matrix.

        Two flat gathers; their indices (``v·n + h`` and ``h·n + v`` per
        entry of vertex ``v`` and hub vertex ``h``) are built on the
        first call.
        """
        if self._flat is None:
            n = self.n
            owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.ptr))
            hub_ids = self.perm[self.hubs]
            self._flat = (owner * n + hub_ids, hub_ids * n + owner)
        to_idx, from_idx = self._flat
        return np.take(dist, to_idx), np.take(dist, from_idx)


def _label_structure(plan) -> _LabelStructure:
    """``plan``'s :class:`_LabelStructure`, built on first use and kept
    on the plan."""
    if plan._labels is None:
        plan._labels = _LabelStructure(plan)
    return plan._labels


class HubLabelIndex:
    """Immutable 2-hop label set for one state of a session.

    Build with :meth:`build`; query with :meth:`query_one` /
    :meth:`query_many`.  Instances are never mutated after construction —
    the serving layer swaps whole indexes atomically when a new epoch
    publishes, mirroring the session's own epoch swap.

    Attributes
    ----------
    ptr, hubs, dto, dfrom:
        CSR label storage over original vertex ids: vertex ``v`` owns
        entries ``[ptr[v], ptr[v+1])``; ``hubs`` holds hub *keys*
        (ascending per vertex), ``dto[e] = dist(v → hub)``,
        ``dfrom[e] = dist(hub → v)``.  Keys follow the extended order:
        with ``ne`` trail events, key ``r < ne`` names the vertex the
        trail's ``r``-th event eliminated and key ``ne + p`` the reduced
        vertex at permuted position ``p`` — the key space spans exactly
        ``n`` values and queries take *original* ids throughout.
    perm:
        Original vertex id of each hub key.
    comp:
        Connected-component label per vertex.  Labels of different
        components are disjoint, so the index is the union of
        independent per-component shards and cross-component queries
        short-circuit to ``inf`` without touching the label arrays.
    node, parent, depth, pre, span, chain_len:
        Extended etree tables of the chain-suffix join: the etree node
        of each original vertex; the parent, depth, depth-first preorder
        number and chain length of each node; and the sparse table of
        shallowest nodes over the preorder (``span[j, i]`` covers
        preorder positions ``[i, i + 2**j)``) that answers LCA queries.
    trail_events:
        Vertices the plan's reduction trail eliminated (0 without one).
    epoch_index, weights_digest, plan_id:
        Identity of the epoch/plan this index was built from;
        ``epoch_index`` is ``-1`` for a factor-built index, whose
        ``weights_digest`` is that of the session's weights.
    source:
        ``"factor"`` (built from the plan and weights, no epoch) or
        ``"epoch"`` (sliced from a published epoch).
    """

    __slots__ = (
        "n", "directed", "ptr", "hubs", "dto", "dfrom", "perm",
        "comp", "ncomp", "node", "parent", "depth", "pre", "span",
        "chain_len",
        "trail_events", "epoch_index", "weights_digest", "plan_id", "source",
        "build_seconds", "solve_seconds",
    )

    def __init__(self, *, n, directed, ptr, hubs, dto, dfrom, perm, comp,
                 ncomp, node, parent, depth, pre, span, chain_len,
                 epoch_index, weights_digest, plan_id, source="epoch",
                 trail_events=0, build_seconds=0.0,
                 solve_seconds=0.0) -> None:
        self.n = int(n)
        self.directed = bool(directed)
        self.ptr = ptr
        self.hubs = hubs
        self.dto = dto
        self.dfrom = dfrom
        self.perm = perm
        self.comp = comp
        self.ncomp = int(ncomp)
        self.node = node
        self.parent = parent
        self.depth = depth
        self.pre = pre
        self.span = span
        self.chain_len = chain_len
        self.trail_events = int(trail_events)
        self.epoch_index = int(epoch_index)
        self.weights_digest = weights_digest
        self.plan_id = plan_id
        self.source = source
        self.build_seconds = float(build_seconds)
        self.solve_seconds = float(solve_seconds)
        for arr in (self.ptr, self.hubs, self.dto, self.dfrom, self.comp,
                    *self._etree_tables()):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, session: APSPSession) -> "HubLabelIndex":
        """Build the label index for ``session``'s current weights.

        With no published epoch, the labels come from the factor
        (:mod:`repro.serve.factor`), with a trail unreduced in label
        space (:func:`_unreduce_labels`): no solve runs and no ``n x n``
        array is allocated.  Otherwise they are sliced from the
        published epoch, re-solving if a structural commit dropped the
        plan (plan and epoch must describe the *same* structure and
        weights).  The label structure (CSR, join tables, shards) comes
        from the plan's memo, built on the plan's first index, so only
        ``dto``/``dfrom`` are computed per build; the arrays are shared,
        read-only, by every index of the plan.  Reported under the
        ``hub-index-build`` span, whose
        ``source`` is ``"factor"`` or ``"epoch"``, ``trail_events``
        counts the labelled eliminated vertices and ``ops`` the semiring
        ops the build ran, with per-phase children.  ``build_seconds``
        and ``solve_seconds`` are the durations of the
        ``hub-index-build`` and ``hub-index-solve`` phases
        (:func:`repro.obs.phase`).
        """
        tracer = get_tracer()
        timings: dict[str, float] = {}
        with session._write_lock:  # one consistent (graph, plan, epoch)
            graph, plan, epoch = session.graph, session.plan, session._epoch
        from_factor = epoch is None and plan is not None
        source = "factor" if from_factor else "epoch"
        with phase(timings, "build", "hub-index-build", n=graph.n,
                   source=source) as build_span:
            ops = OpCounter()
            if from_factor:
                dtype = np.dtype(session.solve_options.get("dtype", np.float64))
                st = plan.structure
                with tracer.span("hub-index-factor", ns=st.ns):
                    try:
                        applied = (None if plan.trail is None
                                   else plan.trail.apply(graph))
                        blocks = factor_chain_blocks(
                            st, plan.snode_rows,
                            graph if applied is None else applied.graph,
                            plan.ordering.perm, dtype=dtype, counter=ops,
                        )
                    except NegativeCycleError:
                        # The session's solve raises the canonical error
                        # (same witness) for the same weights.
                        session.solve()
                        raise
                epoch_index = -1
                weights_digest = weights_sha(graph.weights)
            else:
                with phase(timings, "solve", "hub-index-solve"):
                    if session.plan is None or session._epoch is None:
                        ops.merge(session.solve().ops)
                epoch = session.epoch
                graph, plan = session.graph, session.plan
                dist = np.asarray(epoch.dist)
                epoch_index = epoch.index
                weights_digest = epoch.weights_digest
            labels = _label_structure(plan)
            ptr, hubs, ne = labels.ptr, labels.hubs, labels.ne
            with tracer.span("hub-index-values"):
                if from_factor:
                    # Row t of block s's chain block starts at
                    # block_ptr[s] + t·|chain(s)|.  A hub h of block s'
                    # (s itself or an etree ancestor, whose chain is a
                    # suffix of chain(s)) sits at its column
                    # |chain(s)| − |chain(s')| + (h − lo(s')).
                    to_flat, from_flat, block_ptr = blocks
                    count = labels.pos_count[ne:]
                    dest = _ranges(ptr[labels.perm[ne:]], count)
                    clen = chain_lengths(st)
                    v = np.repeat(np.arange(st.n, dtype=np.int64), count)
                    h = hubs[dest] - ne
                    s, s_h = st.snode_of[v], st.snode_of[h]
                    at = (block_ptr[s] + (v - st.snode_ptr[s] + 1) * clen[s]
                          - clen[s_h] + h - st.snode_ptr[s_h])
                    dto = np.empty(hubs.shape[0], dtype=to_flat.dtype)
                    dfrom = np.empty_like(dto)
                    dto[dest] = to_flat[at]
                    dfrom[dest] = from_flat[at]
                    if ne:
                        _unreduce_labels(plan.trail, applied, labels.perm,
                                         ptr, hubs, dto, dfrom,
                                         labels.depth[:ne])
                else:
                    dto, dfrom = labels.gather(dist)
            build_span.set(ops=ops.total, trail_events=ne)

        if tracer.enabled:
            tracer.metric_inc("serve.index_builds")
            tracer.metrics.observe("serve.index_build_s", timings["build"])
            tracer.metrics.observe("serve.label_entries", float(hubs.size))
        return cls(
            n=plan.n, directed=session.directed, ptr=ptr, hubs=hubs,
            dto=dto, dfrom=dfrom, perm=labels.perm, comp=labels.comp,
            ncomp=labels.ncomp, node=labels.node, parent=labels.parent,
            depth=labels.depth, pre=labels.pre, span=labels.span,
            chain_len=labels.chain_len,
            trail_events=ne, epoch_index=epoch_index,
            weights_digest=weights_digest, plan_id=plan.plan_id,
            source=source, build_seconds=timings["build"],
            solve_seconds=timings.get("solve", 0.0),
        )

    # ------------------------------------------------------------------
    @property
    def entries(self) -> int:
        """Total label entries across all vertices."""
        return int(self.hubs.shape[0])

    def label_sizes(self) -> np.ndarray:
        """Per-vertex label cardinality (query-cost proxy)."""
        return np.diff(self.ptr)

    def _etree_tables(self) -> tuple:
        return (self.node, self.parent, self.depth, self.pre, self.span,
                self.chain_len)

    def memory_bytes(self) -> int:
        """Bytes held by the label arrays and the etree join tables."""
        return sum(
            a.nbytes for a in (self.ptr, self.hubs, self.dto, self.dfrom,
                               *self._etree_tables())
        )

    def shard_stats(self) -> list[dict]:
        """Per-component shard summary (vertices, entries, widths)."""
        sizes = self.label_sizes()
        out = []
        for c in range(self.ncomp):
            vs = np.flatnonzero(self.comp == c)
            out.append({
                "component": int(c),
                "vertices": int(vs.size),
                "entries": int(sizes[vs].sum()),
                "max_width": int(sizes[vs].max()) if vs.size else 0,
            })
        return out

    # ------------------------------------------------------------------
    def _check_ids(self, values) -> np.ndarray:
        idx = _vertex_ids(values)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            bad = idx[(idx < 0) | (idx >= self.n)][0]
            raise ValueError(
                f"vertex id {int(bad)} out of range for n={self.n}"
            )
        return idx

    def query_one(self, i: int, j: int) -> float:
        """Distance for one pair (original ids); ``inf`` if unreachable."""
        return float(self.query_many([i], [j])[0])

    def query_many(self, sources, targets) -> np.ndarray:
        """Vectorized batched distances for pairs ``(sources[k], targets[k])``.

        The whole batch is evaluated with a handful of numpy passes:

        1. cross-component pairs short-circuit to ``inf``;
        2. a range-minimum query over the etree's preorder finds each
           pair's extended etree LCA ``a``, and
           ``L = min(|H(u)|, |H(v)|, |chain(a)|)`` is the length of the
           labels' shared tail (see the module docstring);
        3. the last ``L`` entries of ``dto`` for ``u`` and of ``dfrom``
           for ``v`` line up hub for hub, and ``np.minimum.reduceat``
           takes each pair's minimum of ``d(u→h) + d(h→v)``.

        Unreachable same-component (directed) pairs come out as an
        all-``inf`` minimum.  Vertex ids must be whole numbers in ``[0, n)``;
        anything else raises ``ValueError``.
        """
        return self._evaluate(sources, targets)[0]

    def all_pairs(self) -> np.ndarray:
        """The full ``n x n`` distance matrix, one :meth:`query_many` per
        block of source rows.

        Each block holds about 65k pairs, so the join's per-pair
        candidate sums never span all ``n²`` pairs at once; the returned
        matrix is the only ``n x n`` array.
        """
        n = self.n
        dist = np.empty((n, n))
        rows = max(1, _ALL_PAIRS_BLOCK // max(n, 1))
        targets = np.tile(np.arange(n, dtype=np.int64), min(rows, n))
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            sources = np.repeat(np.arange(lo, hi, dtype=np.int64), n)
            dist[lo:hi] = self.query_many(
                sources, targets[:sources.shape[0]]
            ).reshape(hi - lo, n)
        return dist

    def _evaluate(self, sources, targets) -> tuple[np.ndarray, int]:
        """:meth:`query_many` plus the number of ``d(u→h) + d(h→v)`` sums
        the join evaluated."""
        sources = self._check_ids(sources)
        targets = self._check_ids(targets)
        if sources.shape != targets.shape:
            raise ValueError("sources and targets must have the same length")
        out = np.full(sources.shape[0], np.inf)
        pair_ids = np.flatnonzero(self.comp[sources] == self.comp[targets])
        if not pair_ids.size:
            return out, 0
        out[pair_ids], candidates = self._chain_join(
            sources[pair_ids], targets[pair_ids]
        )
        return out, candidates

    def _lca(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Extended etree LCA of each pair ``(a[k], b[k])`` (same tree).

        A range-minimum query: for ``pre(a) < pre(b)``, the nodes at
        preorder positions ``(pre(a), pre(b)]`` all lie below the LCA
        in its subtree, and the shallowest of them are its children.
        Two overlapping power-of-two windows of the sparse table find
        one, in a fixed number of numpy passes.
        """
        pa, pb = self.pre[a], self.pre[b]
        hi = np.maximum(pa, pb)
        lo = np.minimum(np.minimum(pa, pb) + 1, hi)
        k = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(window))
        left = self.span[k, lo]
        right = self.span[k, hi + 1 - np.left_shift(1, k)]
        child = np.where(self.depth[left] <= self.depth[right], left, right)
        return np.where(a == b, a, self.parent[child])

    def _chain_join(self, srcs: np.ndarray, tgts: np.ndarray):
        """Shared-suffix join of same-component pairs.

        Returns the per-pair minima and the candidate-sum count.
        """
        end_s = self.ptr[srcs + 1]
        end_t = self.ptr[tgts + 1]
        shared = np.minimum(
            np.minimum(end_s - self.ptr[srcs], end_t - self.ptr[tgts]),
            self.chain_len[self._lca(self.node[srcs], self.node[tgts])],
        )
        # Every label ends with its tree's root chain, so shared >= 1.
        ends = np.cumsum(shared)
        starts = ends - shared
        off = np.arange(int(ends[-1]), dtype=np.int64)
        sums = (self.dto[off + np.repeat(end_s - ends, shared)]
                + self.dfrom[off + np.repeat(end_t - ends, shared)])
        return np.minimum.reduceat(sums, starts), int(ends[-1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HubLabelIndex(n={self.n}, entries={self.entries}, "
            f"shards={self.ncomp}, epoch={self.epoch_index})"
        )

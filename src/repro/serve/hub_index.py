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
is a common elimination-tree ancestor of both (the same fact the DPC /
P3C factorization in :mod:`repro.core.treewidth` rests on).  Every
etree ancestor of a vertex in supernode ``s`` lies either at a
greater-or-equal position inside ``s`` itself or inside one of ``s``'s
ancestor supernodes — supernodes are exactly contiguous runs of the
vertex etree chain, and ``parent(s) > s`` always.  So taking

    H(v) = { positions ≥ p(v) in snode(v) }  ∪  vertices of A(snode(v))

(with ``p(v)`` the permuted position of ``v``) is a superset of the
etree-ancestor hub set and therefore a *valid* 2-hop cover.  The extra
vertices are harmless: every label distance is exact, so any hub only
ever contributes ``d(u→h) + d(h→v) ≥ dist(u, v)`` by the triangle
inequality.  Label sizes are bounded by the separator-chain length —
the quantity small nested-dissection separators directly minimize.

**Why the join is a shared suffix.**  Written as a sequence, the chain
of supernode ``s`` is ``chain(s) = [lo_s .. hi_s) ++ chain(parent(s))``
and ``H(v)`` is the suffix of ``chain(snode(v))`` starting at ``v``'s
own position.  Two chains share exactly the chain of the supernodes'
etree LCA ``a``: the parts below ``a`` lie on disjoint tree paths.  So
``H(u) ∩ H(v)`` is the common tail of both labels, of length
``min(|H(u)|, |H(v)|, |chain(a)|)``, and :meth:`HubLabelIndex.query_many`
answers each pair by lining up the last ``L`` entries of both labels —
no keys, sort or ``searchsorted``.  The LCA comes from binary lifting
over the supernodal etree, ``~log₂(depth)`` numpy passes per batch.

**Where the label distances come from.**  A session with no published
epoch and a plan without a reduction trail gets its labels from the
factor (:mod:`repro.serve.factor`): an ascending supernodal DPC and a
descending chain pass compute exactly the chain blocks the labels
need, with no solve and no ``n x n`` array.  Once the session has
published an epoch — and always for a plan with a reduction trail —
the labels are sliced from that epoch instead, solving first when
there is none, in one flat ``O(total label entries)`` gather.  Both
sources are exact; on dyadic weights (sums exact in float64) a
factor-built index is bit-identical to the epoch-sliced one, and in
general each label distance may differ from the epoch's entry by
rounding.

Storage is CSR over *original* vertex ids: ``ptr``/``hubs``/``dto``/
``dfrom``, with hubs kept as permuted positions so every label array is
sorted ascending.  A plan with a reduction trail also labels the
vertices the reduction eliminated, with unions of their neighbors'
labels; those are not chain suffixes, so such an index answers with a
sorted ``searchsorted`` merge over ``pair · n + hub`` keys instead.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs.components import connected_components
from repro.obs import get_tracer
from repro.obs.metrics import OpCounter
from repro.plan.session import APSPSession
from repro.resilience.checkpoint import weights_sha
from repro.resilience.errors import NegativeCycleError
from repro.semiring.engine import use_engine
from repro.serve.factor import chain_lengths, factor_chain_blocks


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
        entries ``[ptr[v], ptr[v+1])``; ``hubs`` holds hub *permuted
        positions* (ascending per vertex), ``dto[e] = dist(v → hub)``,
        ``dfrom[e] = dist(hub → v)``.  When the plan carries a reduction
        trail, positions ``0..n_reduced-1`` name the reduced permuted
        vertices and position ``n_reduced + r`` names the vertex the
        trail's ``r``-th event eliminated — the key space still spans
        exactly ``n`` values and queries take *original* ids throughout.
    comp:
        Connected-component label per vertex (components of the plan's
        symmetrized pattern — weak components for digraphs).  Labels of
        different components are disjoint, so the index is the union of
        independent per-component shards and cross-component queries
        short-circuit to ``inf`` without touching the label arrays.
    snode, depth, up, chain_len:
        Supernodal etree tables of the chain-suffix join: the supernode
        of each original vertex, the etree depth and binary-lifting
        ancestors (``up[j, s]``, the ``2**j``-th) of each supernode, and
        the length of its ancestor chain.  ``None`` for an index built
        from a plan with a reduction trail, which joins by sorted merge.
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
        "comp", "ncomp", "snode", "depth", "up", "chain_len",
        "epoch_index", "weights_digest", "plan_id", "source",
        "build_seconds", "solve_seconds",
    )

    def __init__(self, *, n, directed, ptr, hubs, dto, dfrom, perm, comp,
                 ncomp, epoch_index, weights_digest, plan_id,
                 source="epoch", snode=None, depth=None, up=None,
                 chain_len=None, build_seconds=0.0,
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
        self.snode = snode
        self.depth = depth
        self.up = up
        self.chain_len = chain_len
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

        With no published epoch and a plan without a reduction trail,
        the labels come from the factor (:mod:`repro.serve.factor`): no
        solve runs and no ``n x n`` array is allocated.  Otherwise they
        are sliced from the published epoch, solving first if there is
        none, and re-solving if a structural commit dropped the plan
        (plan and epoch must describe the *same* structure and weights).
        Reported under the ``hub-index-build`` span, whose ``source``
        is ``"factor"`` or ``"epoch"`` and whose ``ops`` counts the
        semiring ops the build ran, with per-phase children.
        """
        tracer = get_tracer()
        t0 = time.perf_counter()
        with session._write_lock:  # one consistent (graph, plan, epoch)
            graph, plan, epoch = session.graph, session.plan, session._epoch
        from_factor = epoch is None and plan is not None and plan.trail is None
        source = "factor" if from_factor else "epoch"
        with tracer.span("hub-index-build", n=graph.n,
                         source=source) as build_span:
            solve_s = 0.0
            ops = OpCounter()
            if from_factor:
                dtype = np.dtype(session.solve_options.get("dtype", np.float64))
                st = plan.structure
                with tracer.span("hub-index-factor", ns=st.ns), \
                        use_engine(session.solve_options.get("engine")):
                    try:
                        blocks = factor_chain_blocks(
                            st, plan.snode_rows, graph, plan.ordering.perm,
                            dtype=dtype, counter=ops,
                        )
                    except NegativeCycleError:
                        # The session's solve raises the canonical error
                        # (same witness) for the same weights.
                        session.solve()
                        raise
                epoch_index = -1
                weights_digest = weights_sha(graph.weights)
            else:
                with tracer.span("hub-index-solve"):
                    if session.plan is None or session._epoch is None:
                        t1 = time.perf_counter()
                        ops.merge(session.solve().ops)
                        solve_s = time.perf_counter() - t1
                epoch = session.epoch
                plan = session.plan
                st = plan.structure
                dist = np.asarray(epoch.dist)
                epoch_index = epoch.index
                weights_digest = epoch.weights_digest
            trail = plan.trail
            n = plan.n
            nr = st.n
            perm = np.asarray(plan.ordering.perm, dtype=np.int64)
            # ``orig_of[p]`` is the *original* vertex id sitting at reduced
            # permuted position ``p`` — with no trail the reduced graph is
            # the original graph and this is just ``perm``.
            if trail is not None:
                kept_ids = np.asarray(trail.kept, dtype=np.int64)
                orig_of = kept_ids[perm]
            else:
                orig_of = perm
            # Hub key space: positions 0..nr-1 are reduced permuted
            # positions; keys nr+r (one per trail event, in elimination
            # order) name the eliminated vertices.  nr + n_events == n, so
            # the query-side key arithmetic (pair * n + hub) is unchanged.
            hub_orig = np.empty(n, dtype=np.int64)
            hub_orig[:nr] = orig_of
            if trail is not None:
                hub_orig[nr:] = np.asarray(trail.verts, dtype=np.int64)

            with tracer.span("hub-index-labels"):
                # Chain table: supernode s's ancestor chain is the
                # vertex runs of s, parent(s), parent²(s), ... — its
                # k-th supernode is s's k-th ancestor, read off the
                # binary-lifting table bit by bit of k.
                up, depth, root = _lifting(st.parent)
                ns = st.ns
                hops = depth + 1
                anc = np.repeat(np.arange(ns, dtype=np.int64), hops)
                k = _ranges(np.zeros(ns, dtype=np.int64), hops)
                for j in range(up.shape[0]):
                    step = ((k >> j) & 1).astype(bool)
                    anc[step] = up[j, anc[step]]
                chain_pos = _ranges(st.snode_ptr[anc], np.diff(st.snode_ptr)[anc])
                chain_len = chain_lengths(st)
                chain_ptr = np.cumsum(chain_len) - chain_len
                # Reduced position p at offset t of supernode s labels
                # with chain(s)[t:].
                pos = np.arange(nr, dtype=np.int64)
                offset = pos - st.snode_ptr[st.snode_of]
                pos_start = chain_ptr[st.snode_of] + offset
                pos_count = chain_len[st.snode_of] - offset

                counts = np.zeros(n, dtype=np.int64)
                counts[orig_of] = pos_count
                elim: dict[int, np.ndarray] = {}
                if trail is not None:
                    # Eliminated vertices, in *reverse* elimination order:
                    # each one's quotient neighbors were still alive when
                    # it was eliminated, so they are kept (chain labels)
                    # or eliminated later (labels built earlier in this
                    # loop).  H(v) = {v's own key} ∪ ⋃ H(neighbor) is a
                    # valid 2-hop cover: any shortest u–v path enters v
                    # through a quotient neighbor q with d(u,v) = d(u,q) +
                    # w_q(q,v), and the hub witnessing (u,q) is inherited
                    # into H(v) — induction on the earlier-eliminated
                    # endpoint.  Distances are sliced from the exact full
                    # matrix, so extras stay harmless.
                    pos_of = np.full(n, -1, dtype=np.int64)
                    pos_of[orig_of] = pos

                    def label(q: int) -> np.ndarray:
                        p = pos_of[q]
                        if p < 0:
                            return elim[q]
                        s = pos_start[p]
                        return chain_pos[s:s + pos_count[p]]

                    for r in range(trail.n_events - 1, -1, -1):
                        v = int(trail.verts[r])
                        nbrs = np.union1d(
                            np.asarray(trail.out_nbrs[r], dtype=np.int64),
                            np.asarray(trail.in_nbrs[r], dtype=np.int64),
                        )
                        sets = [np.asarray([nr + r], dtype=np.int64)]
                        sets.extend(label(int(q)) for q in nbrs)
                        elim[v] = np.unique(np.concatenate(sets))
                        counts[v] = elim[v].size

                ptr = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(counts, out=ptr[1:])
                hubs = np.empty(int(ptr[-1]), dtype=np.int64)
                dest = _ranges(ptr[orig_of], pos_count)
                hubs[dest] = chain_pos[_ranges(pos_start, pos_count)]
                for v, hubs_pos in elim.items():
                    hubs[ptr[v]:ptr[v + 1]] = hubs_pos
                if from_factor:
                    # Row t of supernode s's chain block starts at
                    # block_ptr[s] + t·|chain(s)|; its label is the
                    # suffix from column t on.
                    to_flat, from_flat, block_ptr = blocks
                    at = _ranges(
                        block_ptr[st.snode_of]
                        + offset * (chain_len[st.snode_of] + 1),
                        pos_count,
                    )
                    dto = np.empty(hubs.shape[0], dtype=to_flat.dtype)
                    dfrom = np.empty_like(dto)
                    dto[dest] = to_flat[at]
                    dfrom[dest] = from_flat[at]
                else:
                    # One flat gather of every label distance.
                    owner = np.repeat(np.arange(n, dtype=np.int64), counts)
                    hub_ids = hub_orig[hubs]
                    dto = dist[owner, hub_ids]
                    dfrom = dist[hub_ids, owner]

            with tracer.span("hub-index-shards"):
                if trail is not None:
                    # With a reduction trail the shards must come from
                    # the *original* graph: eliminating a directed
                    # source/sink adds no fill, so the reduced pattern
                    # can split a weak component whose pairs are
                    # perfectly reachable.
                    src = (
                        session.graph.symmetrized()
                        if session.directed
                        else session.graph
                    )
                    ncomp, comp = connected_components(src)
                    etree = {}
                else:
                    # Each etree tree is one component of the pattern
                    # (supernode relaxation merges only into the etree
                    # parent), so the shard is the vertex's etree root,
                    # numbered in order of each tree's smallest vertex.
                    snode = np.empty(n, dtype=np.int64)
                    snode[orig_of] = st.snode_of
                    _, first, inv = np.unique(
                        root[snode], return_index=True, return_inverse=True
                    )
                    ncomp = first.shape[0]
                    rank = np.empty(ncomp, dtype=np.int64)
                    rank[np.argsort(first)] = np.arange(ncomp)
                    comp = rank[inv.ravel()]
                    etree = dict(snode=snode, depth=depth, up=up,
                                 chain_len=chain_len)
            build_span.set(ops=ops.total)

        build_s = time.perf_counter() - t0
        if tracer.enabled:
            tracer.metric_inc("serve.index_builds")
            tracer.metrics.observe("serve.index_build_s", build_s)
            tracer.metrics.observe("serve.label_entries", float(hubs.size))
        return cls(
            n=n, directed=session.directed, ptr=ptr, hubs=hubs, dto=dto,
            dfrom=dfrom, perm=perm, comp=comp, ncomp=ncomp,
            epoch_index=epoch_index, weights_digest=weights_digest,
            plan_id=plan.plan_id, source=source,
            build_seconds=build_s, solve_seconds=solve_s, **etree,
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
        if self.up is None:
            return ()
        return (self.snode, self.depth, self.up, self.chain_len)

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
        2. binary lifting finds each pair's supernodal etree LCA ``a``,
           and ``L = min(|H(u)|, |H(v)|, |chain(a)|)`` is the length of
           the labels' shared tail (see the module docstring);
        3. the last ``L`` entries of ``dto`` for ``u`` and of ``dfrom``
           for ``v`` line up hub for hub, and ``np.minimum.reduceat``
           takes each pair's minimum of ``d(u→h) + d(h→v)``.

        An index built from a plan with a reduction trail joins by
        sorted merge instead (:meth:`_merge_join`).  Unreachable
        same-component (directed) pairs come out as an all-``inf``
        minimum.  Vertex ids must be whole numbers in ``[0, n)``;
        anything else raises ``ValueError``.
        """
        return self._evaluate(sources, targets)[0]

    def _evaluate(self, sources, targets) -> tuple[np.ndarray, str, int]:
        """:meth:`query_many` plus the join that ran and its candidate sums.

        The join is ``"chain"`` (shared suffix) or ``"merge"`` (sorted
        merge, for indexes with a reduction trail); the count is the
        number of ``d(u→h) + d(h→v)`` sums it evaluated.
        """
        sources = self._check_ids(sources)
        targets = self._check_ids(targets)
        if sources.shape != targets.shape:
            raise ValueError("sources and targets must have the same length")
        join, run = (("merge", self._merge_join) if self.up is None
                     else ("chain", self._chain_join))
        out = np.full(sources.shape[0], np.inf)
        pair_ids = np.flatnonzero(self.comp[sources] == self.comp[targets])
        if not pair_ids.size:
            return out, join, 0
        out[pair_ids], candidates = run(sources[pair_ids], targets[pair_ids])
        return out, join, candidates

    def _lca(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Supernodal etree LCA of each pair ``(a[k], b[k])`` (same tree)."""
        deeper = self.depth[a] >= self.depth[b]
        a, b = np.where(deeper, a, b), np.where(deeper, b, a)
        rise = self.depth[a] - self.depth[b]
        for j in range(self.up.shape[0]):
            step = ((rise >> j) & 1).astype(bool)
            a = np.where(step, self.up[j, a], a)
        for up in self.up[::-1]:
            ua, ub = up[a], up[b]
            apart = ua != ub
            a = np.where(apart, ua, a)
            b = np.where(apart, ub, b)
        return np.where(a == b, a, self.up[0, a])

    def _chain_join(self, srcs: np.ndarray, tgts: np.ndarray):
        """Shared-suffix join of same-component pairs.

        Returns the per-pair minima and the candidate-sum count.
        """
        end_s = self.ptr[srcs + 1]
        end_t = self.ptr[tgts + 1]
        shared = np.minimum(
            np.minimum(end_s - self.ptr[srcs], end_t - self.ptr[tgts]),
            self.chain_len[self._lca(self.snode[srcs], self.snode[tgts])],
        )
        # Every label ends with its tree's root chain, so shared >= 1.
        ends = np.cumsum(shared)
        starts = ends - shared
        off = np.arange(int(ends[-1]), dtype=np.int64)
        sums = (self.dto[off + np.repeat(end_s - ends, shared)]
                + self.dfrom[off + np.repeat(end_t - ends, shared)])
        return np.minimum.reduceat(sums, starts), int(ends[-1])

    def _merge_join(self, srcs: np.ndarray, tgts: np.ndarray):
        """Sorted-merge join of same-component pairs.

        The labels' ``pair_index * n + hub_position`` keys are sorted by
        construction, since each label's hub positions ascend; one
        ``searchsorted`` probes the smaller side into the larger and
        ``np.minimum.reduceat`` takes each pair's minimum over the
        matches.  Serves any label layout, including the union labels of
        reduced vertices.  Returns the per-pair minima and the number of
        candidate sums (matched hubs).
        """
        key_s, d_s, pid_s = self._gather(srcs, self.dto)
        key_t, d_t, pid_t = self._gather(tgts, self.dfrom)
        # Probe the smaller flat side into the larger: cost is
        # |small| · log |large|.
        if key_s.shape[0] <= key_t.shape[0]:
            sums, pids = self._probe(key_s, d_s, pid_s, key_t, d_t)
        else:
            sums, pids = self._probe(key_t, d_t, pid_t, key_s, d_s)
        out = np.full(srcs.shape[0], np.inf)
        if sums.shape[0]:
            starts = np.flatnonzero(
                np.r_[True, pids[1:] != pids[:-1]]
            )
            out[pids[starts]] = np.minimum.reduceat(sums, starts)
        return out, int(sums.shape[0])

    def _gather(self, verts: np.ndarray, dvals: np.ndarray):
        """Flatten the labels of ``verts`` with per-entry pair tags.

        Returns ``(keys, dists, pair_index)`` where
        ``keys = pair_index * n + hub_position`` is globally ascending.
        """
        starts = self.ptr[verts]
        counts = self.ptr[verts + 1] - starts
        pair_index = np.repeat(
            np.arange(verts.shape[0], dtype=np.int64), counts
        )
        flat = _ranges(starts, counts)
        keys = pair_index * np.int64(self.n) + self.hubs[flat]
        return keys, dvals[flat], pair_index

    @staticmethod
    def _probe(key_a, d_a, pid_a, key_b, d_b):
        """Probe keyed label stream ``key_a`` into ``key_b`` (both ascending).

        Returns the matched ``d_a + d_b`` sums and their pair indexes,
        still grouped by pair.  Min-plus is commutative, so which side
        probes does not change the answer.
        """
        loc = np.searchsorted(key_b, key_a)
        inb = loc < key_b.shape[0]
        loc_c = np.where(inb, loc, 0)
        hit = inb & (key_b[loc_c] == key_a)
        return d_a[hit] + d_b[loc_c[hit]], pid_a[hit]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HubLabelIndex(n={self.n}, entries={self.entries}, "
            f"shards={self.ncomp}, epoch={self.epoch_index})"
        )

"""Exact graph reductions ahead of ordering (shrink before you solve).

Separator size drives the SuperFW cost ``O(n² |S|)``, and everything the
analyze phase produces is weight-independent — so contracting the graph
*before* partitioning is pure win that amortizes across every warm
solve, epoch commit, and hub-label build ("Engineering Data Reduction
for Nested Dissection", Ost/Schulz/Strash).

The rules read structure only, and always the *symmetric* pattern: a
:class:`DiGraph` is reduced on ``A + Aᵀ``, the pattern ordering and
symbolic analysis already see (paper §4), so its trail is structurally
identical to the trail of ``graph.symmetrized()``.  Eliminating ``v``
makes its quotient neighborhood ``N(v)`` a clique of that pattern, and
the weights of every pair in it improve by min-plus Gaussian
elimination

    w(x → y)  ⊕=  w(x → v) + w(v → y)        (x ≠ y in N(v))

— the tropical Schur complement, which preserves all pairwise distances
among the surviving vertices *exactly*, for arbitrary (including
negative) weights, directed or undirected.  Direction lives only in the
weights: a missing arc weighs ``inf``, and a directed graph materializes
only the finite shortcuts, so its reduced graph is a subgraph of the
reduced pattern.  The rules below therefore only decide **which**
vertices are worth eliminating; the recorded :class:`ReductionTrail` is
weight-independent and can live inside a cached
:class:`~repro.plan.plan.Plan`:

* **isolated / pendant** (degree 0 / 1) — no fill at all;
* **chain** (degree 2) — path compression: one shortcut edge per
  eliminated interior vertex;
* **simplicial** — the quotient neighborhood is already a clique, so
  elimination adds no structural fill, only weight improvements;
* **twin** — two vertices with identical (open or closed) quotient
  neighborhoods; the duplicate is eliminated.

Per solve, :meth:`ReductionTrail.apply` replays the trail on the real
weights (building the reduced graph plus the per-event quotient weight
vectors), and :meth:`AppliedReduction.unreduce` reconstitutes the full
``n × n`` distance matrix by walking the trail backwards:

    d(v, y) = min_j  w(v → nⱼ) + d(nⱼ, y)        (nⱼ in N(v) at
    d(x, v) = min_j  d(x, nⱼ) + w(nⱼ → v)         elimination time)

Negative cycles surface either as a negative shortcut self-loop during
:meth:`~ReductionTrail.apply`, as a negative diagonal in the reduced
solve, or as ``d(v, v) < 0`` during unreduce — all three raise
:class:`~repro.resilience.errors.NegativeCycleError`, matching the
unreduced solver's contract.

See ``docs/ORDERING.md`` for worked figures and the full unreduce math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.obs import get_tracer
from repro.resilience.errors import NegativeCycleError

#: Event kind codes stored in :attr:`ReductionTrail.kinds`.
ISOLATED, PENDANT, CHAIN, TWIN, SIMPLICIAL = range(5)

#: Human-readable names indexed by kind code.
KIND_NAMES = ("isolated", "pendant", "chain", "twin", "simplicial")

#: Quotient-degree cap for the fill-producing rules (twin, simplicial).
#: Pendants and chain interiors are always eliminated regardless.
DEFAULT_MAX_DEGREE = 8

#: ``reduce="auto"`` keeps a trail only when it eliminates
#: at least this share of the vertices (see :func:`auto_keeps`).
AUTO_MIN_ELIMINATED = 0.9

#: ... and when its trail-forest depths sum to at most this many
#: ``n·log₂ n``.
AUTO_MAX_DEPTH_SUM = 2.0


@dataclass
class ReductionTrail:
    """Ordered, weight-independent record of eliminated vertices.

    Attributes
    ----------
    n:
        Vertex count of the *original* graph.
    directed:
        Whether the trail was built for a :class:`DiGraph`.  The rules
        read the symmetric pattern either way; only :meth:`apply` reads
        arc directions, from the weights.
    kinds, verts:
        Per-event rule code (:data:`KIND_NAMES`) and eliminated vertex
        (original id), in elimination order.
    nbrs:
        Per-event sorted quotient neighbor ids at elimination time, in
        the symmetric pattern.  The event makes them a clique: they are
        the endpoints of every shortcut it can add, and the attachment
        points unreduce restores distances through.
    kept:
        Sorted original ids surviving every event; reduced vertex ``r``
        is original vertex ``kept[r]``.
    """

    n: int
    directed: bool
    kinds: np.ndarray
    verts: np.ndarray
    nbrs: list[np.ndarray]
    kept: np.ndarray

    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        """Number of eliminated vertices."""
        return int(self.verts.shape[0])

    @property
    def n_eliminated(self) -> int:
        """Alias of :attr:`n_events`."""
        return self.n_events

    @property
    def n_reduced(self) -> int:
        """Vertex count of the reduced graph."""
        return int(self.kept.shape[0])

    def kind_counts(self) -> dict[str, int]:
        """``{rule name: eliminations}`` over the whole trail."""
        out: dict[str, int] = {}
        for code, name in enumerate(KIND_NAMES):
            c = int(np.sum(self.kinds == code))
            if c:
                out[name] = c
        return out

    def stats(self) -> dict[str, Any]:
        """Summary used by ``Plan.describe`` and the score report."""
        return {
            "n_full": int(self.n),
            "n_reduced": self.n_reduced,
            "eliminated": self.n_events,
            "by_rule": self.kind_counts(),
        }

    # ------------------------------------------------------------------
    def apply(self, graph: Graph | DiGraph) -> "AppliedReduction":
        """Replay the trail on ``graph``'s weights.

        Returns the reduced graph plus the per-event quotient weight
        vectors unreduce needs: ``w_out[e][j] = w(v → nⱼ)`` and
        ``w_in[e][j] = w(nⱼ → v)``, ``inf`` where a directed graph has
        no such arc.  Only finite shortcuts are materialized, so the
        reduced graph has exactly :meth:`reduced_pattern`'s structure
        when undirected and a subgraph of it when directed.  Raises
        :class:`NegativeCycleError` when a shortcut closes a negative
        cycle through an eliminated vertex.
        """
        if graph.n != self.n or isinstance(graph, DiGraph) != self.directed:
            raise ValueError(
                f"trail was built for a different graph "
                f"(n={self.n}, directed={self.directed})"
            )
        tracer = get_tracer()
        with tracer.span(
            "ordering.reduce.apply", n=self.n, reduced=self.n_reduced
        ):
            rows = np.repeat(
                np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr)
            )
            W: dict[tuple[int, int], float] = dict(
                zip(
                    zip(rows.tolist(), graph.indices.tolist()),
                    graph.weights.tolist(),
                )
            )
            inf = float("inf")
            w_out_all: list[np.ndarray] = []
            w_in_all: list[np.ndarray] = []
            for e in range(self.n_events):
                v = int(self.verts[e])
                nbrs = self.nbrs[e].tolist()
                w_out = np.array([W.get((v, y), inf) for y in nbrs],
                                 dtype=np.float64)
                w_in = np.array([W.get((x, v), inf) for x in nbrs],
                                dtype=np.float64)
                w_out_all.append(w_out)
                w_in_all.append(w_in)
                for x, wx in zip(nbrs, w_in):
                    if wx == inf:
                        continue
                    for y, wy in zip(nbrs, w_out):
                        cand = wx + wy
                        if x == y:
                            # Shortcut self-loop x→v→x: a negative one is
                            # a negative cycle; a nonnegative one can
                            # never improve a shortest path.
                            if cand < 0:
                                raise NegativeCycleError(witness=v)
                            continue
                        if cand == inf:
                            continue
                        old = W.get((x, y))
                        if old is None or cand < old:
                            W[(x, y)] = cand
            keep_mask = np.zeros(self.n, dtype=bool)
            keep_mask[self.kept] = True
            red_of = np.full(self.n, -1, dtype=np.int64)
            red_of[self.kept] = np.arange(self.n_reduced, dtype=np.int64)
            if self.directed:
                arcs = [
                    (red_of[u], red_of[v], w)
                    for (u, v), w in W.items()
                    if keep_mask[u] and keep_mask[v]
                ]
                reduced: Graph | DiGraph = DiGraph.from_edges(
                    self.n_reduced,
                    np.asarray(arcs, dtype=np.float64).reshape(-1, 3),
                )
            else:
                edges = [
                    (red_of[u], red_of[v], w)
                    for (u, v), w in W.items()
                    if u < v and keep_mask[u] and keep_mask[v]
                ]
                reduced = Graph.from_edges(
                    self.n_reduced,
                    np.asarray(edges, dtype=np.float64).reshape(-1, 3),
                )
        if tracer.enabled:
            tracer.metric_inc("ordering.reduce.applies")
        return AppliedReduction(
            trail=self, graph=reduced, w_out=w_out_all, w_in=w_in_all
        )

    def reduced_pattern(self, graph: Graph | DiGraph) -> Graph:
        """Unit-weight undirected pattern of the reduced graph, from structure.

        Every edge of ``graph``'s symmetric pattern between kept
        vertices, plus the clique each event makes of its neighbors.
        This is the graph ordering and symbolic analysis see; no weight
        is read and no event is replayed.
        """
        rows = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr))
        sizes = np.array([a.shape[0] for a in self.nbrs], dtype=np.int64)
        flat = np.concatenate([np.zeros(0, dtype=np.int64), *self.nbrs])
        # Clique pair k of event e joins neighbors k // sizes[e] and
        # k % sizes[e].
        pairs = sizes * sizes
        event = np.repeat(np.arange(self.n_events, dtype=np.int64), pairs)
        k = np.arange(int(pairs.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(pairs) - pairs, pairs
        )
        first = np.repeat(np.cumsum(sizes) - sizes, pairs)
        tail = flat[first + k // sizes[event]]
        head = flat[first + k % sizes[event]]
        red_of = np.full(self.n, -1, dtype=np.int64)
        red_of[self.kept] = np.arange(self.n_reduced, dtype=np.int64)
        u = red_of[np.concatenate([rows, tail])]
        v = red_of[np.concatenate([np.asarray(graph.indices, dtype=np.int64), head])]
        keep = (u >= 0) & (v >= 0) & (u != v)
        lo, hi = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
        key = np.unique(lo * self.n_reduced + hi)
        return Graph.from_edges(
            self.n_reduced,
            np.column_stack([key // self.n_reduced, key % self.n_reduced,
                             np.ones(key.shape[0])]),
        )

    # ------------------------------------------------------------------
    # Flat-array (de)serialization used by Plan.save / Plan.load.
    # ------------------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flat int arrays for npz round-tripping."""
        from repro.plan.plan import _pack_ragged

        nbr_concat, nbr_ptr = _pack_ragged(self.nbrs)
        return {
            "trail_kinds": np.asarray(self.kinds, dtype=np.int64),
            "trail_verts": np.asarray(self.verts, dtype=np.int64),
            "trail_nbr_concat": nbr_concat,
            "trail_nbr_ptr": nbr_ptr,
            "trail_kept": np.asarray(self.kept, dtype=np.int64),
        }

    @classmethod
    def from_arrays(
        cls, data, *, n: int, directed: bool
    ) -> "ReductionTrail":
        """Inverse of :meth:`to_arrays` (``data`` is a loaded npz).

        Plan format v2 stored out- and in-neighbor lists.  They are equal
        on an undirected trail, which loads from its out lists; a
        directed v2 trail followed arc directions, so its reduced
        pattern is not the one this library builds, and loading it
        raises ``ValueError``.
        """
        from repro.plan.plan import _unpack_ragged

        if "trail_nbr_concat" in data.files:
            nbrs = _unpack_ragged(data["trail_nbr_concat"], data["trail_nbr_ptr"])
        elif directed:
            raise ValueError(
                "plan format v2 holds a directed trail built on arc "
                "directions; analyze the graph again"
            )
        else:
            nbrs = _unpack_ragged(data["trail_out_concat"], data["trail_out_ptr"])
        return cls(
            n=int(n),
            directed=bool(directed),
            kinds=np.asarray(data["trail_kinds"], dtype=np.int64),
            verts=np.asarray(data["trail_verts"], dtype=np.int64),
            nbrs=nbrs,
            kept=np.asarray(data["trail_kept"], dtype=np.int64),
        )


@dataclass
class AppliedReduction:
    """One trail replayed on concrete weights: reduced graph + unreduce data."""

    trail: ReductionTrail
    graph: Graph | DiGraph
    w_out: list[np.ndarray]
    w_in: list[np.ndarray]

    def unreduce(self, reduced_dist: np.ndarray) -> np.ndarray:
        """Exact full-``n`` distance matrix from the reduced solve.

        Walks the trail backwards; when vertex ``v`` is restored, every
        quotient neighbor it had at elimination time is already present,
        so one vectorized min-plus row/column product per event suffices.
        ``d(v, v) < 0`` after restoration means a negative cycle through
        ``v`` and raises :class:`NegativeCycleError`.
        """
        t = self.trail
        tracer = get_tracer()
        with tracer.span("ordering.reduce.unreduce", n=t.n):
            full = np.full((t.n, t.n), np.inf, dtype=reduced_dist.dtype)
            full[np.ix_(t.kept, t.kept)] = reduced_dist
            for e in range(t.n_events - 1, -1, -1):
                v = int(t.verts[e])
                nbrs = t.nbrs[e]
                if nbrs.size:
                    full[v, :] = np.min(
                        self.w_out[e][:, None] + full[nbrs, :], axis=0
                    )
                    full[:, v] = np.min(
                        full[:, nbrs] + self.w_in[e][None, :], axis=1
                    )
                if full[v, v] < 0:
                    raise NegativeCycleError(witness=v)
                full[v, v] = 0.0
        return full


def build_trail(
    graph: Graph | DiGraph,
    *,
    pattern: Graph | None = None,
    max_degree: int = DEFAULT_MAX_DEGREE,
    min_kept: int = 1,
) -> ReductionTrail:
    """Run the structural reduction rules to a fixpoint.

    Reads only the symmetric adjacency (never weights or arc
    directions), so the result is valid for every reweighting of
    ``graph``, and a :class:`DiGraph`'s trail is structurally the trail
    of ``graph.symmetrized()`` (pass that pattern as ``pattern`` when
    it is already built).  Rules fire in rounds — low-degree/simplicial
    sweep, then a twin sweep — until a full round eliminates nothing;
    ties always resolve to the smallest vertex id, so the trail is
    deterministic.  At least ``min_kept`` vertices survive (the solver
    needs a nonempty reduced graph).
    """
    directed = isinstance(graph, DiGraph)
    if pattern is None:
        pattern = graph.symmetrized() if directed else graph
    n = graph.n
    tracer = get_tracer()
    with tracer.span("ordering.reduce.build", n=n):
        adj: list[set[int]] = [
            set(map(int, pattern.neighbors(v))) for v in range(n)
        ]
        alive = np.ones(n, dtype=bool)
        alive_count = n
        kinds: list[int] = []
        verts: list[int] = []
        nbr_lists: list[np.ndarray] = []

        def eliminate(v: int, kind: int) -> None:
            nonlocal alive_count
            nbrs = adj[v]
            kinds.append(kind)
            verts.append(v)
            nbr_lists.append(np.asarray(sorted(nbrs), dtype=np.int64))
            # The quotient neighborhood becomes a clique.
            for x in nbrs:
                ax = adj[x]
                ax |= nbrs
                ax.discard(x)
                ax.discard(v)
            adj[v] = set()
            alive[v] = False
            alive_count -= 1

        def is_simplicial(v: int) -> bool:
            nbrs = adj[v]
            for x in nbrs:
                ax = adj[x]
                for y in nbrs:
                    if y != x and y not in ax:
                        return False
            return True

        def twin_key(v: int, closed: bool) -> tuple:
            return tuple(sorted(adj[v] | {v} if closed else adj[v]))

        changed = True
        while changed and alive_count > min_kept:
            changed = False
            for v in range(n):
                if alive_count <= min_kept:
                    break
                if not alive[v]:
                    continue
                d = len(adj[v])
                if d == 0:
                    eliminate(v, ISOLATED)
                elif d == 1:
                    eliminate(v, PENDANT)
                elif d == 2:
                    eliminate(v, CHAIN)
                elif d <= max_degree and is_simplicial(v):
                    eliminate(v, SIMPLICIAL)
                else:
                    continue
                changed = True
            if alive_count <= min_kept:
                break
            groups: dict[tuple, list[int]] = {}
            for v in range(n):
                if not alive[v] or len(adj[v]) > max_degree:
                    continue
                groups.setdefault((False, twin_key(v, False)), []).append(v)
                groups.setdefault((True, twin_key(v, True)), []).append(v)
            for (closed, _), members in groups.items():
                if len(members) < 2:
                    continue
                live = [v for v in members if alive[v]]
                if len(live) < 2:
                    continue
                rep = live[0]
                for v in live[1:]:
                    if alive_count <= min_kept:
                        break
                    # Earlier eliminations may have changed either side;
                    # re-validate the twin relation at elimination time.
                    if not (alive[v] and alive[rep]):
                        continue
                    if len(adj[v]) > max_degree:
                        continue
                    if twin_key(v, closed) != twin_key(rep, closed):
                        continue
                    eliminate(v, TWIN)
                    changed = True

        trail = ReductionTrail(
            n=n,
            directed=directed,
            kinds=np.asarray(kinds, dtype=np.int64),
            verts=np.asarray(verts, dtype=np.int64),
            nbrs=nbr_lists,
            kept=np.flatnonzero(alive).astype(np.int64),
        )
    if tracer.enabled and trail.n_events:
        tracer.metric_inc("ordering.reduce.eliminated", trail.n_events)
        tracer.metric_inc("ordering.reduce.kept", trail.n_reduced)
        for name, count in trail.kind_counts().items():
            tracer.metric_inc(f"ordering.reduce.{name}", count)
    return trail


def trail_depths(trail: ReductionTrail) -> np.ndarray:
    """Depth of each event in its trail forest.

    Event ``r`` hangs below its earliest-eliminated quotient neighbor
    that the trail also eliminates (a later event, since neighbors are
    alive at elimination time), and is a root when every neighbor is
    kept.  Its depth counts itself and its event ancestors — the
    eliminated part of the hub label it gets when the plan is served
    (:mod:`repro.serve.hub_index`), directed or not.
    """
    ne = trail.n_events
    event_of = np.full(trail.n, ne, dtype=np.int64)
    event_of[trail.verts] = np.arange(ne, dtype=np.int64)
    sizes = np.array([a.shape[0] for a in trail.nbrs], dtype=np.int64)
    up = np.full(ne, ne, dtype=np.int64)
    np.minimum.at(
        up,
        np.repeat(np.arange(ne, dtype=np.int64), sizes),
        event_of[np.concatenate([np.zeros(0, dtype=np.int64), *trail.nbrs])],
    )
    depth = [1] * ne
    for r, p in zip(range(ne - 1, -1, -1), up[::-1].tolist()):
        if p < ne:
            depth[r] += depth[p]
    return np.asarray(depth, dtype=np.int64)


def auto_keeps(trail: ReductionTrail) -> bool:
    """Whether ``analyze(reduce="auto")`` orders the reduced graph.

    Decided from the trail alone, before any ordering runs, by one rule
    for undirected and directed graphs (a directed trail has its
    symmetric pattern's structure).  A reduced plan pays off when the
    core left to nested dissection is small and the eliminated vertices
    hang in shallow trees:

    * at least :data:`AUTO_MIN_ELIMINATED` of the vertices must go.
      Below that the core's dissection costs about what the full
      graph's does, while the trail vertices' labels stack on the
      core's — 10–17% more label entries than the unreduced plan on the
      power-grid and mesh suite graphs that eliminate 20–66%;
    * the trail-forest depths (:func:`trail_depths`) may sum to at most
      :data:`AUTO_MAX_DEPTH_SUM` ``· n·log₂ n``.  A path, cycle or
      long chain is eliminated end to end, each vertex below the next,
      and its labels would hold ``~n²/2`` entries where nested
      dissection's hold ``~3·n·log₂ n``.  Road networks and random
      trees sum to 0.6–1.4 ``n·log₂ n``.
    """
    n = trail.n
    if not trail.n_events or trail.n_events < AUTO_MIN_ELIMINATED * n:
        return False
    return int(trail_depths(trail).sum()) <= AUTO_MAX_DEPTH_SUM * n * np.log2(n)


def reduce_graph(
    graph: Graph | DiGraph, **options: Any
) -> tuple[ReductionTrail, AppliedReduction]:
    """Convenience: build a trail for ``graph`` and apply it in one step."""
    trail = build_trail(graph, **options)
    return trail, trail.apply(graph)

"""Serving tier: hub-label index + DistanceServer (read path)."""

import asyncio
import tracemalloc
from functools import partial

import numpy as np
import pytest

from repro.core.incremental import quantize_weights
from repro.core.superfw import superfw
from repro.graphs import generators
from repro.graphs.components import connected_components
from repro.graphs.digraph import DiGraph, orient_randomly
from repro.graphs.graph import Graph
from repro.graphs.suite import get_entry
from repro.obs import Tracer, use_tracer
from repro.ordering.base import Ordering
from repro.plan import APSPSession, PlanCache
from repro.resilience.errors import (
    NegativeCycleError,
    StaleEpochError,
    UnreachablePairError,
)
from repro.serve import DistanceServer, HubLabelIndex
from repro.serve.hub_index import _label_nodes

from conftest import scipy_apsp
from test_reduce import _graph as reduce_fixture


def _all_pairs(server, n):
    src, dst = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return server.query_many(src.ravel(), dst.ravel()).reshape(n, n)


def _assert_matches(got, ref):
    assert np.array_equal(np.isinf(got), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.allclose(got[finite], ref[finite])


# ----------------------------------------------------------------------
# Correctness against the full matrix.
# ----------------------------------------------------------------------
def test_all_pairs_matches_oracle(any_graph):
    with DistanceServer(any_graph) as server:
        _assert_matches(_all_pairs(server, any_graph.n), scipy_apsp(any_graph))


def test_directed_queries_match_full_matrix():
    dg = orient_randomly(generators.erdos_renyi(80, avg_degree=3.5, seed=5),
                         seed=1)
    ref = superfw(dg, seed=0).dist
    with DistanceServer(dg) as server:
        _assert_matches(_all_pairs(server, dg.n), np.asarray(ref))


def _negative_digraph() -> DiGraph:
    """Random digraph with negative arcs but no negative cycle (potentials)."""
    rng = np.random.default_rng(3)
    arcs = [
        (int(u), int(v), float(rng.uniform(0.1, 2)))
        for u, v in rng.integers(0, 50, (180, 2))
        if u != v
    ]
    h = rng.uniform(0, 3, 50)
    return DiGraph.from_edges(50, [(u, v, w + h[u] - h[v]) for u, v, w in arcs])


def test_directed_negative_arcs():
    dg = _negative_digraph()
    ref = superfw(dg, seed=0).dist
    with DistanceServer(dg) as server:
        _assert_matches(_all_pairs(server, dg.n), np.asarray(ref))


def test_batched_equals_scalar(mesh_graph):
    server = DistanceServer(mesh_graph)
    rng = np.random.default_rng(0)
    src = rng.integers(0, mesh_graph.n, 200)
    dst = rng.integers(0, mesh_graph.n, 200)
    batched = server.query_many(src, dst)
    scalars = np.array([server.query(int(i), int(j)) for i, j in zip(src, dst)])
    assert np.array_equal(batched, scalars)


def test_self_distance_zero(grid_graph):
    with DistanceServer(grid_graph) as server:
        assert server.query(5, 5) == 0.0


def test_vertex_ids_validated(grid_graph):
    server = DistanceServer(grid_graph)
    with pytest.raises(ValueError):
        server.query(0, grid_graph.n)
    with pytest.raises(ValueError):
        server.query_many([-1], [0])
    # A non-whole id is an error, never a truncation to its floor.
    with pytest.raises(ValueError):
        server.query(1.9, 2)
    with pytest.raises(ValueError):
        server.query_many([0.9], [2])
    with pytest.raises(ValueError):
        server.query_many([0], [np.nan])
    with pytest.raises(ValueError):
        asyncio.run(server.aquery(0, 2.5))
    index = server.index
    with pytest.raises(ValueError):
        index.query_many([0.5], [1])
    with pytest.raises(ValueError):
        index.query_one(0, 1.5)
    # Whole-valued floats name the same vertex as the integer.
    assert server.query(1.0, 2) == server.query(1, 2)
    assert np.array_equal(server.query_many([1.0], [np.float32(2)]),
                          server.query_many([1], [2]))


# ----------------------------------------------------------------------
# Disconnected pairs and sharding.
# ----------------------------------------------------------------------
def test_disconnected_pairs_inf_not_raise():
    g = Graph.from_edges(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.5)])
    server = DistanceServer(g)
    assert np.isinf(server.query(0, 3))
    assert np.isinf(server.query(5, 0))
    assert server.query(5, 5) == 0.0
    out = server.query_many([0, 0, 3], [2, 4, 4])
    assert out[0] == pytest.approx(3.0)
    assert np.isinf(out[1])
    assert out[2] == pytest.approx(1.5)
    assert server.unreachable >= 2
    assert server.cross_shard >= 1


def test_shards_follow_components():
    g = Graph.from_edges(7, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
    server = DistanceServer(g)
    index = server.refresh()
    assert index.ncomp == 4  # three edges' components + isolated vertex 6
    stats = index.shard_stats()
    assert sum(s["vertices"] for s in stats) == 7
    assert sum(s["entries"] for s in stats) == index.entries
    # Labels never cross a shard: every hub shares its vertex's component.
    for v in range(7):
        hubs = index.hubs[index.ptr[v]:index.ptr[v + 1]]
        assert (index.comp[index.perm[hubs]] == index.comp[v]).all()


def _forest() -> Graph:
    """Disjoint union of a grid, a mesh, a path and two isolated vertices."""
    parts = [generators.grid2d(5, 6, seed=2), generators.delaunay_mesh(40, seed=3),
             Graph.from_edges(4, [(0, 1, 0.7), (1, 2, 1.3), (2, 3, 0.9)])]
    edges, base = [], 0
    for part in parts:
        e = part.edge_array()
        e[:, :2] += base
        edges.append(e)
        base += part.n
    return Graph.from_edges(base + 2, np.concatenate(edges))


def _float_mesh() -> Graph:
    edges = generators.delaunay_mesh(120, seed=7).edge_array()
    rng = np.random.default_rng(11)
    edges[:, 2] = rng.uniform(0.1, 10.0, edges.shape[0]) / 3.0
    return Graph.from_edges(120, edges)


#: Graphs for the chain-join exactness test, with their session options.
JOIN_GRAPHS = {
    "float-weights": (_float_mesh, {}),
    "directed-negative": (_negative_digraph, {}),
    "forest": (_forest, {}),
    # Eliminated from both ends inward: one fundamental supernode (the
    # labels' etree node) per vertex and an etree of two ~n/2-deep
    # branches that meet at the middle vertex, so the LCA queries
    # windows of every width up to the whole preorder.
    "path": (
        lambda: Graph.from_edges(
            151, [(i, i + 1, 1.0 + (i % 7) / 3.0) for i in range(150)]
        ),
        {"ordering": Ordering(np.column_stack(
            (np.arange(76), np.arange(150, 74, -1))).ravel()[:151])},
    ),
}


@pytest.mark.parametrize("kind", sorted(JOIN_GRAPHS))
def test_chain_join_matches_merge_join(kind):
    # The chain join is the index's only join: the full matrix is its
    # oracle.
    build, options = JOIN_GRAPHS[kind]
    g = build()
    session = APSPSession(g, **options)
    index = HubLabelIndex.build(session)
    n = g.n
    src, dst = (a.ravel() for a in np.meshgrid(
        np.arange(n), np.arange(n), indexing="ij"))
    got = index.query_many(src, dst)
    _assert_matches(got.reshape(n, n), np.asarray(session.dist))
    # Etree trees are exactly the pattern's components.
    ncomp, comp = connected_components(session.plan.pattern)
    assert index.ncomp == ncomp
    assert np.array_equal(index.comp, comp)
    if kind == "forest":
        assert ncomp == 5
    if kind == "path":
        assert index.depth.max() >= 64
        assert index.span.shape[0] == int(np.log2(index.depth.shape[0])) + 1
    session.close()


@pytest.mark.parametrize("reduce", [False, True])
def test_lca_matches_root_paths(reduce):
    index = HubLabelIndex.build(
        APSPSession(quantize_weights(_forest()), reduce=reduce, seed=0))
    nodes = index.depth.shape[0]
    paths = []
    for x in range(nodes):
        path = [x]
        while index.parent[path[-1]] >= 0:
            path.append(int(index.parent[path[-1]]))
        paths.append(path)
    a, b = (v.ravel() for v in np.meshgrid(
        np.arange(nodes), np.arange(nodes), indexing="ij"))
    same = np.array([paths[x][-1] == paths[y][-1] for x, y in zip(a, b)])
    a, b = a[same], b[same]
    want = [next(z for z in paths[x] if z in paths[y]) for x, y in zip(a, b)]
    assert np.array_equal(index._lca(a, b), want)
    assert np.array_equal(index.depth, [len(p) - 1 for p in paths])


def test_strict_unreachable_raises():
    g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    server = DistanceServer(g, strict=True)
    assert server.query(0, 1) == pytest.approx(1.0)
    with pytest.raises(UnreachablePairError) as err:
        server.query(0, 2)
    assert err.value.source == 0 and err.value.target == 2
    with pytest.raises(UnreachablePairError):
        server.query_many([0, 0], [1, 3])


# ----------------------------------------------------------------------
# Epoch lifecycle: commits invalidate index + result cache.
# ----------------------------------------------------------------------
def test_commit_invalidates_index_and_cache(grid_graph):
    session = APSPSession(grid_graph, seed=0)
    server = DistanceServer(session)
    n = grid_graph.n
    before = _all_pairs(server, n)
    _assert_matches(before, scipy_apsp(grid_graph))
    cached = server.query(0, n - 1)  # populate the result cache
    assert cached == pytest.approx(before[0, n - 1])

    edges = session.graph.edge_array()
    u, v, w = int(edges[0][0]), int(edges[0][1]), float(edges[0][2])
    session.apply_updates([(u, v, w * 0.01)])
    info = session.commit()
    assert info.decision in ("fold", "resolve")

    after = _all_pairs(server, n)
    ref = superfw(session.graph, seed=0).dist
    _assert_matches(after, np.asarray(ref))
    assert server.query(0, n - 1) == pytest.approx(float(ref[0, n - 1]))
    assert server.rebuilds == 1
    assert server.refresh().epoch_index == session.epoch.index


def test_structural_commit_rebuilds_through_resolve(grid_graph):
    session = APSPSession(grid_graph, seed=0)
    server = DistanceServer(session)
    server.query(0, 1)
    # Insert a brand-new edge: the fold publishes an epoch but drops the
    # plan; the server's rebuild must trigger the lazy re-analysis.
    session.apply_updates([(0, grid_graph.n - 1, 0.05)])
    session.commit()
    ref = superfw(session.graph, seed=0).dist
    _assert_matches(_all_pairs(server, grid_graph.n), np.asarray(ref))


def test_result_cache_hits_and_eviction(grid_graph):
    server = DistanceServer(grid_graph, result_cache_size=4)
    for _ in range(3):
        server.query(0, 5)
    assert server.cache_hits == 2
    for j in range(1, 6):  # 5 distinct pairs through a 4-slot cache
        server.query(0, j)
    assert server.cache_evictions >= 1
    stats = server.stats()["result_cache"]
    assert stats["entries"] <= 4


def test_plan_cache_warms_second_build(grid_graph):
    cache = PlanCache()
    first = DistanceServer(grid_graph, cache=cache)
    first.refresh()
    second = DistanceServer(grid_graph, cache=cache)
    second.refresh()
    assert cache.hits >= 1
    _assert_matches(_all_pairs(second, grid_graph.n), scipy_apsp(grid_graph))


# ----------------------------------------------------------------------
# Stale-epoch policies.
# ----------------------------------------------------------------------
def _make_stale(session):
    """Fabricate the degraded-commit state: graph weights moved past the
    published epoch without a successful re-solve."""
    session.epoch  # force a publish
    session.graph = session.graph.with_weights(session.graph.weights * 2.0)
    assert session.stale


def test_stale_policy_serve_counts(grid_graph):
    session = APSPSession(grid_graph, seed=0)
    server = DistanceServer(session)
    baseline = server.query(0, 1)
    _make_stale(session)
    # Same epoch, same (stale-but-consistent) answer; occurrences counted.
    assert server.query(0, 1) == pytest.approx(baseline)
    assert server.stale_serves >= 1


def test_stale_policy_raise(grid_graph):
    session = APSPSession(grid_graph, seed=0)
    server = DistanceServer(session, stale_policy="raise")
    server.query(0, 1)
    _make_stale(session)
    with pytest.raises(StaleEpochError) as err:
        server.query(0, 1)
    assert err.value.epoch_index == session.epoch.index
    with pytest.raises(StaleEpochError):
        server.query_many([0], [1])
    # A successful solve heals the session; serving resumes.
    session.solve()
    assert np.isfinite(server.query(0, 1))


def test_stale_policy_validated(grid_graph):
    with pytest.raises(ValueError):
        DistanceServer(grid_graph, stale_policy="panic")


# ----------------------------------------------------------------------
# Async micro-batching.
# ----------------------------------------------------------------------
def test_aquery_matches_matrix(grid_graph):
    server = DistanceServer(grid_graph)
    ref = scipy_apsp(grid_graph)
    pairs = [(i, j) for i in range(10) for j in range(10)]

    async def main():
        return await asyncio.gather(
            *(server.aquery(i, j) for i, j in pairs)
        )

    values = asyncio.run(main())
    assert np.allclose(values, [ref[i, j] for i, j in pairs])
    # Concurrent awaiters coalesced into far fewer vectorized batches.
    assert server.batches < len(pairs)


def test_aquery_max_batch_flushes_immediately(grid_graph):
    server = DistanceServer(grid_graph, max_batch=8, batch_window=60.0)
    ref = scipy_apsp(grid_graph)

    async def main():
        # 16 concurrent requests with an hour-long window: only the
        # max_batch trigger can flush them.
        return await asyncio.gather(
            *(server.aquery(0, j) for j in range(16))
        )

    values = asyncio.run(main())
    assert np.allclose(values, [ref[0, j] for j in range(16)])
    assert server.batches == 2


def test_aquery_strict_propagates_errors():
    g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    server = DistanceServer(g, strict=True)

    async def main():
        return await asyncio.gather(
            server.aquery(0, 1), server.aquery(0, 2),
            return_exceptions=True,
        )

    results = asyncio.run(main())
    # The whole coalesced batch fails with the typed error.
    assert all(isinstance(r, UnreachablePairError) for r in results)


def test_closed_server_rejects_queries(grid_graph):
    server = DistanceServer(grid_graph)
    server.query(0, 1)
    server.close()
    with pytest.raises(RuntimeError):
        server.query(0, 1)
    server.close()  # idempotent


# ----------------------------------------------------------------------
# Index internals and observability.
# ----------------------------------------------------------------------
def test_labels_sorted_and_bounded(mesh_graph):
    session = APSPSession(mesh_graph, seed=0)
    index = HubLabelIndex.build(session)
    # Labels follow the column etree's fundamental supernodes, not the
    # plan's amalgamated blocks.
    ptr, up = _label_nodes(session.plan)
    assert ptr.shape[0] - 1 > session.plan.structure.ns
    snode_of = np.repeat(np.arange(ptr.shape[0] - 1), np.diff(ptr))
    sizes = index.label_sizes()
    assert sizes.min() >= 1
    assert sizes.max() <= mesh_graph.n
    iperm = np.empty(mesh_graph.n, dtype=np.int64)
    iperm[index.perm] = np.arange(mesh_graph.n)
    for v in range(mesh_graph.n):
        lo, hi = int(index.ptr[v]), int(index.ptr[v + 1])
        hubs = index.hubs[lo:hi]
        assert (np.diff(hubs) > 0).all()  # strictly ascending per label
        # Every vertex is its own first hub at distance 0.
        assert hubs[0] == iperm[v]
        assert index.dto[lo] == 0.0 and index.dfrom[lo] == 0.0
        # The label is the suffix of its supernode's ancestor chain from
        # the vertex's own position: the layout the chain join relies on.
        s = a = int(snode_of[iperm[v]])
        runs = []
        while a >= 0:
            runs.append(np.arange(ptr[a], ptr[a + 1]))
            a = int(up[a])
        chain = np.concatenate(runs)
        assert np.array_equal(hubs, chain[iperm[v] - ptr[s]:])
        assert index.chain_len[s] == chain.size
    assert index.entries == int(sizes.sum())
    assert index.memory_bytes() > 0


def test_index_is_immutable(grid_graph):
    index = HubLabelIndex.build(APSPSession(grid_graph, seed=0))
    with pytest.raises(ValueError):
        index.hubs[0] = 1
    with pytest.raises(ValueError):
        index.dto[0] = 0.0


def test_serving_emits_spans_and_metrics(grid_graph):
    tracer = Tracer()
    with use_tracer(tracer):
        server = DistanceServer(grid_graph)
        server.query_many([0, 1], [2, 3])
    names = {event.name for event in tracer.events()}
    assert "hub-index-build" in names
    assert "serve-batch" in names
    (batch,) = [e for e in tracer.events() if e.name == "serve-batch"]
    assert batch.args["candidates"] >= 2  # at least one hub per pair
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["serve.index_builds"] == 1
    assert counters["serve.queries"] == 2
    assert counters["serve.batches"] == 1


def test_server_stats_shape(grid_graph):
    server = DistanceServer(grid_graph)
    server.query(0, 1)
    stats = server.stats()
    assert stats["queries"] == 1
    assert stats["index"]["shards"] == 1
    assert stats["index"]["entries"] > 0
    assert stats["index"]["source"] == "factor"
    # A grid eliminates no vertex: reduce="auto" serves it unreduced.
    assert stats["index"]["trail_events"] == 0
    assert stats["result_cache"]["misses"] == 1


def test_server_reduces_road_graphs_by_default():
    g = quantize_weights(generators.road_network_like(300, seed=1))
    with DistanceServer(g) as server:
        server.refresh()
        index = server.stats()["index"]
        assert server.session.plan.params["reduce"] == "auto"
        assert server.session.plan.trail is not None
        assert index["source"] == "factor"
        assert index["trail_events"] > 0
    with DistanceServer(g, reduce=False) as server:
        server.refresh()
        assert server.session.plan.trail is None
        assert server.stats()["index"]["trail_events"] == 0
    # One rule for both graph kinds: a directed road network reduces on
    # its symmetric pattern and serves from the factor too.
    with DistanceServer(orient_randomly(g, seed=2)) as server:
        server.refresh()
        index = server.stats()["index"]
        assert server.session.plan.trail is not None
        assert index["source"] == "factor" and index["trail_events"] > 0
    session = APSPSession(g, seed=0)
    with DistanceServer(session) as server:
        assert server.session is session and session.plan.trail is None


@pytest.mark.parametrize("name", ["power_grid", "mesh"])
def test_server_keeps_unreduced_labels_where_reduction_grows_them(name):
    # Power grids and meshes eliminate too little for a reduced plan to
    # pay: the default serves the unreduced plan's labels.
    g = (generators.power_grid_like(300, seed=0) if name == "power_grid"
         else generators.delaunay_mesh(300, seed=0))
    with DistanceServer(g) as auto, DistanceServer(g, reduce=False) as plain:
        assert auto.session.plan.trail is None
        assert auto.index.entries == plain.index.entries


@pytest.mark.parametrize("shape", ["path", "cycle"])
def test_server_labels_stay_n_log_n_on_long_chains(shape):
    # Eliminated end to end, a path or cycle would hang each vertex
    # below the next and label it with every later one (~n²/2 entries);
    # reduce="auto" serves it from nested dissection instead.
    n = 5000
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    if shape == "cycle":
        edges.append((n - 1, 0, 1.0))
    g = Graph.from_edges(n, edges)
    with DistanceServer(g) as server:
        index = server.index
        assert index.trail_events == 0
        assert index.entries <= 4 * n * np.log2(n)
        src = np.arange(0, n, 7)
        dst = (src * 31 + 11) % n
        expect = np.abs(dst - src).astype(float)
        if shape == "cycle":
            expect = np.minimum(expect, n - expect)
        assert np.array_equal(server.query_many(src, dst), expect)


# ----------------------------------------------------------------------
# Factor-built labels: no epoch, no n x n matrix.
# ----------------------------------------------------------------------
def _dyadic_negative_digraph() -> DiGraph:
    """Negative arcs, no negative cycle, every weight a multiple of 1/8."""
    rng = np.random.default_rng(4)
    h = rng.integers(0, 25, 60) / 8.0
    arcs = [
        (int(u), int(v), rng.integers(1, 17) / 8.0 + h[u] - h[v])
        for u, v in rng.integers(0, 60, (200, 2))
        if u != v
    ]
    return DiGraph.from_edges(60, arcs)


#: Dyadic-weight graphs on which factor labels equal the epoch's bits.
FACTOR_GRAPHS = {
    "undirected": lambda: quantize_weights(generators.delaunay_mesh(160, seed=1)),
    "directed": lambda: quantize_weights(orient_randomly(
        generators.delaunay_mesh(120, seed=2), seed=1)),
    "disconnected": lambda: quantize_weights(_forest()),
    "negative-arcs": _dyadic_negative_digraph,
}


@pytest.mark.parametrize("kind", sorted(FACTOR_GRAPHS))
def test_factor_labels_bit_identical_to_epoch_labels(kind):
    g = FACTOR_GRAPHS[kind]()
    cold = APSPSession(g, seed=0)
    factor = HubLabelIndex.build(cold)
    assert factor.source == "factor" and cold._epoch is None
    warm = APSPSession(g, plan=cold.plan)
    warm.solve()
    sliced = HubLabelIndex.build(warm)
    assert sliced.source == "epoch"
    for name in ("ptr", "hubs", "dto", "dfrom", "comp"):
        assert getattr(factor, name).tobytes() == getattr(sliced, name).tobytes()
    assert factor.ncomp == sliced.ncomp
    n = g.n
    src, dst = (a.ravel() for a in np.meshgrid(
        np.arange(n), np.arange(n), indexing="ij"))
    got = factor.query_many(src, dst).reshape(n, n)
    assert np.array_equal(got, np.asarray(warm.dist))
    if kind == "disconnected":
        assert factor.ncomp == 5


def test_factor_negative_cycle_raises_like_solve():
    g = DiGraph.from_edges(
        6, [(0, 1, 1.0), (1, 2, -3.0), (2, 0, 1.0), (2, 3, 1.0),
            (3, 4, 1.0), (4, 5, 1.0)],
    )
    with pytest.raises(NegativeCycleError) as solved:
        APSPSession(g, seed=0).solve()
    with pytest.raises(NegativeCycleError) as served:
        DistanceServer(g, seed=0).refresh()
    assert served.value.witness == solved.value.witness


def test_reduced_factor_negative_cycle_raises_like_solve():
    edges = generators.road_network_like(100, seed=1).edge_array()
    edges[5, 2] = -1.0  # an undirected negative edge is a negative cycle
    g = Graph.from_edges(100, edges)
    with pytest.raises(NegativeCycleError) as solved:
        APSPSession(g, reduce=True, seed=0).solve()
    with pytest.raises(NegativeCycleError) as served:
        DistanceServer(g, seed=0).refresh()
    assert served.value.witness == solved.value.witness


def test_reduced_plan_builds_from_the_factor():
    g = quantize_weights(generators.road_network_like(200, seed=3))
    session = APSPSession(g, reduce=True, seed=0)
    assert session.plan.trail is not None
    tracer = Tracer()
    with use_tracer(tracer):
        index = HubLabelIndex.build(session)
    assert index.source == "factor"
    assert index.trail_events == session.plan.trail.n_events > 0
    assert session._epoch is None and session.solves == 0
    (span,) = [e for e in tracer.events() if e.name == "hub-index-build"]
    assert span.args["trail_events"] == index.trail_events
    assert "hub-index-solve" not in {e.name for e in tracer.events()}


def _twins() -> Graph:
    """A mesh plus three vertices on one vertex triple: twins, then simplicial."""
    extra = [(60 + k, t, 1.0 + k) for k in range(3) for t in (7, 21, 33)]
    edges = generators.delaunay_mesh(60, seed=5).edge_array()
    return Graph.from_edges(63, np.concatenate([edges, np.array(extra)]))


#: Dyadic-weight graphs whose reduced plans build from the factor: the
#: reduction rules each one must exercise, and whether some trail vertex
#: hangs at an offset t > 0 inside a supernode.  Directed trails reduce
#: on the symmetric pattern, so they build and join like undirected ones.
REDUCED_GRAPHS = {
    **{f"{kind}-{seed}": (partial(reduce_fixture, kind, seed), (), True)
       for kind in ("undirected", "undirected-disconnected",
                    "undirected-selfloops")
       for seed in (0, 1)},
    **{f"{kind}-{seed}": (partial(reduce_fixture, kind, seed),
                          ("pendant", "chain"), True)
       for kind in ("directed", "directed-negative", "directed-disconnected")
       for seed in (0, 1, 2)},
    "road-directed": (lambda: quantize_weights(orient_randomly(
        generators.road_network_like(1500, seed=0), seed=0)),
        ("twin", "simplicial"), True),
    "power-grid-directed": (lambda: quantize_weights(orient_randomly(
        generators.power_grid_like(1000, seed=0), seed=0)),
        ("pendant", "chain", "twin"), True),
    "road": (lambda: quantize_weights(
        generators.road_network_like(1500, seed=0)), ("twin", "simplicial"),
        True),
    "USpowerGrid": (lambda: quantize_weights(
        get_entry("USpowerGrid").build(seed=0)), ("pendant", "chain"), True),
    "forest": (lambda: quantize_weights(_forest()), ("isolated",), True),
    "twins": (lambda: quantize_weights(_twins()), ("twin", "simplicial"),
              False),
}


@pytest.mark.parametrize("kind", sorted(REDUCED_GRAPHS))
def test_reduced_factor_labels_bit_identical_to_epoch_labels(kind):
    build, rules, offset = REDUCED_GRAPHS[kind]
    g = build()
    cold = APSPSession(g, reduce=True, seed=0)
    trail = cold.plan.trail
    assert set(rules) <= set(trail.kind_counts())
    factor = HubLabelIndex.build(cold)
    assert factor.source == "factor"
    assert cold._epoch is None
    warm = APSPSession(g, plan=cold.plan)
    warm.solve()
    sliced = HubLabelIndex.build(warm)
    assert sliced.source == "epoch"
    for name in ("ptr", "hubs", "dto", "dfrom", "comp", "node", "chain_len"):
        assert getattr(factor, name).tobytes() == getattr(sliced, name).tobytes()
    # A supernode split at a trail vertex's offset t > 0 adds an etree
    # node beyond one per trail vertex and one per supernode.
    nodes = factor.chain_len.shape[0]
    label_snodes = _label_nodes(cold.plan)[0].shape[0] - 1
    assert (nodes > trail.n_events + label_snodes) == offset
    # Every label is its own key followed by a chain suffix, so the
    # chain join answers all n² pairs exactly.
    n = g.n
    dist = np.asarray(warm.dist)
    for lo in range(0, n, 128):
        src, dst = (a.ravel() for a in np.meshgrid(
            np.arange(lo, min(n, lo + 128)), np.arange(n), indexing="ij"))
        assert np.array_equal(factor.query_many(src, dst), dist[src, dst])
    # One shard per weak component of the original graph.
    ncomp, _ = connected_components(
        g.symmetrized() if isinstance(g, DiGraph) else g)
    assert factor.ncomp == ncomp
    # Each eliminated vertex's label is its own key followed by the label
    # of its lowest-keyed neighbor q — the union of its own key and all
    # its neighbors' labels, so label entries do not grow past the union.
    def label(v):
        return factor.hubs[factor.ptr[v]:factor.ptr[v + 1]]

    key_of = np.empty(n, dtype=np.int64)
    key_of[factor.perm] = np.arange(n)
    for r, v in enumerate(trail.verts):
        nbrs = trail.nbrs[r]
        if not nbrs.size:
            assert label(v).tolist() == [r]
            continue
        q = nbrs[np.argmin(key_of[nbrs])]
        assert label(v).tolist() == [r] + label(q).tolist()
        union = {r}.union(*(label(x).tolist() for x in nbrs))
        assert label(v).tolist() == sorted(union)


def test_factor_index_lifecycle():
    g = quantize_weights(generators.delaunay_mesh(160, seed=1))
    server = DistanceServer(g, seed=0)
    session = server.session
    index = server.refresh()
    assert index.source == "factor" and index.epoch_index == -1
    assert session._epoch is None
    for _ in range(3):
        server.query_many([0, 5, 9], [7, 1, 150])
        server.query(3, 4)
    assert server.refresh() is index
    assert server.rebuilds == 0 and session._epoch is None
    # The first matrix read solves lazily and equals the sweep's matrix;
    # the next refresh rebuilds once, sliced from that epoch.
    dist = np.asarray(session.dist)
    assert np.array_equal(dist, superfw(g, plan=session.plan).dist)
    sliced = server.refresh()
    assert sliced.source == "epoch" and server.rebuilds == 1
    assert sliced.dto.tobytes() == index.dto.tobytes()
    assert server.refresh() is sliced and server.rebuilds == 1
    assert server.stats()["index"]["source"] == "epoch"


def test_factor_build_stays_below_dense_matrix_bytes():
    g = quantize_weights(generators.road_network_like(1200, seed=0))
    session = APSPSession(g, seed=0)
    tracemalloc.start()
    try:
        index = HubLabelIndex.build(session)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert index.source == "factor"
    assert peak < g.n * g.n * 8


def test_factor_build_span_records_source_and_ops(grid_graph):
    tracer = Tracer()
    with use_tracer(tracer):
        server = DistanceServer(grid_graph, seed=0)
        server.refresh()
        server.session.solve()
        server.refresh()
    builds = [e for e in tracer.events() if e.name == "hub-index-build"]
    assert [b.args["source"] for b in builds] == ["factor", "epoch"]
    assert builds[0].args["ops"] > 0 and builds[1].args["ops"] == 0
    names = {e.name for e in tracer.events()}
    assert "hub-index-factor" in names
    solves = [e for e in tracer.events() if e.name == "hub-index-solve"]
    assert len(solves) == 1  # only the epoch build has a solve phase

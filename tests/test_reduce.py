"""Exact graph reductions: trail build/apply/unreduce, ordering autoselect.

The load-bearing property is *bit-identity*: a reduce→solve→unreduce
pipeline must reproduce the unreduced solve exactly (``np.array_equal``,
not ``allclose``).  The tests use integer-valued float weights, where
every min-plus sum is exact in f64, so any discrepancy is a logic bug
rather than rounding.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.api import apsp
from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import superfw
from repro.graphs.digraph import DiGraph, orient_randomly
from repro.graphs.graph import Graph
from repro.graphs.generators import delaunay_mesh, road_network_like
from repro.ordering import amd_ordering, auto_keeps, build_trail, reduce_graph
from repro.ordering.reduce import trail_depths
from repro.plan.cache import PlanCache
from repro.plan.plan import PLAN_FORMAT_VERSION, Plan, _unit_pattern, analyze
from repro.plan.session import APSPSession
from repro.resilience.errors import NegativeCycleError, ReproError
from repro.serve.hub_index import HubLabelIndex


def _rand_edges(n, m, seed, *, lim=None, wmax=10):
    rng = np.random.default_rng(seed)
    lim = n if lim is None else lim
    seen, edges = set(), []
    while len(edges) < m:
        u, v = int(rng.integers(0, lim)), int(rng.integers(0, lim))
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append((u, v, float(rng.integers(1, wmax))))
    return edges


def _potential_shift(n, edges, seed):
    """Mix negative arc weights into a digraph without negative cycles.

    Reweighting ``w(u,v) -> w(u,v) + p[u] - p[v]`` with any vertex
    potential preserves every cycle's weight, so nonnegative originals
    stay cycle-safe while individual arcs go negative.
    """
    p = np.random.default_rng(seed).integers(0, 25, size=n)
    return [(u, v, w + float(p[u]) - float(p[v])) for (u, v, w) in edges]


def _graph(kind, seed):
    """One named corner of the property matrix."""
    if kind == "undirected":
        return Graph.from_edges(48, _rand_edges(48, 70, seed))
    if kind == "undirected-disconnected":
        # 6 vertices never touched: isolated second/third components.
        return Graph.from_edges(48, _rand_edges(48, 60, seed, lim=42))
    if kind == "undirected-selfloops":
        edges = _rand_edges(48, 60, seed) + [(3, 3, 1.0), (7, 7, -5.0)]
        return Graph.from_edges(48, edges)  # from_edges drops self-loops
    if kind == "directed":
        return DiGraph.from_edges(48, _rand_edges(48, 70, seed))
    if kind == "directed-negative":
        edges = _potential_shift(48, _rand_edges(48, 70, seed), seed)
        return DiGraph.from_edges(48, edges)
    if kind == "directed-disconnected":
        return DiGraph.from_edges(48, _rand_edges(48, 60, seed, lim=40))
    raise ValueError(kind)


KINDS = [
    "undirected",
    "undirected-disconnected",
    "undirected-selfloops",
    "directed",
    "directed-negative",
    "directed-disconnected",
]


# ----------------------------------------------------------------------
# Tentpole property: reduce -> solve -> unreduce is bit-identical.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_reduce_solve_unreduce_bit_identical(kind, seed):
    g = _graph(kind, seed)
    baseline = superfw(g, seed=0)
    for ordering in ("nd", "amd", "auto"):
        reduced = superfw(g, seed=0, reduce=True, ordering=ordering)
        assert np.array_equal(reduced.dist, baseline.dist), (kind, ordering)
        assert reduced.meta["reduce"]["n_reduced"] < g.n


@pytest.mark.parametrize("kind", ["undirected", "directed-negative"])
def test_parallel_superfw_reduce_bit_identical(kind):
    g = _graph(kind, 3)
    baseline = parallel_superfw(g, num_workers=2, seed=0)
    reduced = parallel_superfw(g, num_workers=2, seed=0, reduce=True)
    assert np.array_equal(reduced.dist, baseline.dist)
    assert "reduce" in reduced.meta


def test_trail_is_weight_independent():
    g = _graph("undirected", 5)
    trail = build_trail(g)
    rng = np.random.default_rng(9)
    # Undirected weights must stay mirror-symmetric: with_weights takes
    # the full stored-arc array, so reweight via the edge list instead.
    edges = g.edge_array()
    reweighted = Graph.from_edges(
        g.n,
        [
            (int(u), int(v), float(rng.integers(1, 50)))
            for u, v, _ in edges
        ],
    )
    trail2 = build_trail(reweighted)
    assert np.array_equal(trail.verts, trail2.verts)
    assert np.array_equal(trail.kinds, trail2.kinds)
    applied = trail.apply(reweighted)
    full = applied.unreduce(superfw(applied.graph, seed=0).dist)
    assert np.array_equal(full, superfw(reweighted, seed=0).dist)


def test_reduce_graph_shrinks_and_preserves_reachability():
    g = _graph("undirected-disconnected", 2)
    trail, applied = reduce_graph(g)
    assert applied.graph.n == trail.n_reduced < g.n
    # Isolated vertices all fall to the isolated rule.
    assert trail.kind_counts().get("isolated", 0) >= 1


# ----------------------------------------------------------------------
# Negative-cycle parity: reduced solves surface the same failure, with a
# witness that is a valid *original* vertex id.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reduce_", [False, True])
def test_negative_cycle_parity_directed(reduce_):
    edges = _rand_edges(30, 40, 4) + [(0, 1, 2.0), (1, 2, 3.0), (2, 0, -9.0)]
    g = DiGraph.from_edges(30, edges)
    with pytest.raises(NegativeCycleError) as info:
        superfw(g, seed=0, reduce=reduce_)
    assert 0 <= int(info.value.witness) < g.n
    # A factor-built index raises the session's error, same witness.
    with pytest.raises(NegativeCycleError) as solved:
        APSPSession(g, reduce=reduce_, seed=0).solve()
    with pytest.raises(NegativeCycleError) as served:
        HubLabelIndex.build(APSPSession(g, reduce=reduce_, seed=0))
    assert served.value.witness == solved.value.witness


@pytest.mark.parametrize("reduce_", [False, True])
def test_negative_cycle_parity_undirected(reduce_):
    # Any negative undirected edge is a u-v-u negative cycle.
    edges = _rand_edges(24, 30, 6) + [(2, 9, -4.0)]
    g = Graph.from_edges(24, edges)
    with pytest.raises(NegativeCycleError):
        superfw(g, seed=0, reduce=reduce_)


def test_negative_cycle_on_pendant_chain_caught():
    # The cycle lives entirely inside reduced-away structure: a pendant
    # path with one negative undirected edge.
    g = Graph.from_edges(6, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, -3.0),
                             (3, 4, 1.0), (0, 5, 2.0)])
    with pytest.raises(NegativeCycleError):
        superfw(g, seed=0, reduce=True)


def test_directed_auto_analyze_symmetrizes_once(monkeypatch):
    # The trail and the analyzed pattern share one symmetrization, kept
    # trail or not.
    calls = []
    original = DiGraph.symmetrized

    def counted(self):
        calls.append(self.n)
        return original(self)

    monkeypatch.setattr(DiGraph, "symmetrized", counted)
    for g in (orient_randomly(delaunay_mesh(120, seed=0), seed=0),
              orient_randomly(road_network_like(150, seed=0), seed=0)):
        calls.clear()
        analyze(g, reduce="auto")
        assert len(calls) == 1


# ----------------------------------------------------------------------
# Plan schema v2: trail round-trips through save/load and the cache.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_reduced_pattern_matches_the_unit_weight_replay(kind, seed):
    g = _graph(kind, seed)
    trail = build_trail(g)
    # The rules read the symmetric pattern: a digraph's trail is its
    # symmetrization's, event for event.
    sym = _unit_pattern(g)
    sym_trail = build_trail(sym)
    for name in ("kinds", "verts", "kept"):
        assert getattr(trail, name).tobytes() == getattr(sym_trail, name).tobytes()
    assert [a.tolist() for a in trail.nbrs] == [a.tolist() for a in sym_trail.nbrs]
    pattern = trail.reduced_pattern(g)
    replayed = _unit_pattern(sym_trail.apply(sym).graph)
    for name in ("indptr", "indices", "weights"):
        assert getattr(pattern, name).tobytes() == getattr(replayed, name).tobytes()
    # A digraph materializes only its finite shortcuts: its reduced
    # graph's pattern is a subgraph of the plan's.
    own = _unit_pattern(trail.apply(g).graph)

    def keys(p):
        return np.repeat(np.arange(p.n), np.diff(p.indptr)) * p.n + p.indices

    assert np.isin(keys(own), keys(pattern)).all()


def test_plan_save_load_roundtrip_with_trail(tmp_path):
    g = _graph("directed", 7)
    plan = analyze(g, ordering="auto", reduce=True)
    assert plan.trail is not None and plan.score_report is not None
    path = tmp_path / "p.plan.npz"
    plan.save(path)
    loaded = Plan.load(path)
    assert loaded.plan_id == plan.plan_id
    assert loaded.n == plan.n and loaded.n_reduced == plan.n_reduced
    assert np.array_equal(loaded.trail.verts, plan.trail.verts)
    assert np.array_equal(loaded.trail.kinds, plan.trail.kinds)
    assert np.array_equal(loaded.trail.kept, plan.trail.kept)
    assert loaded.score_report["picked"] == plan.score_report["picked"]
    # A loaded plan solves exactly like the in-memory one.
    assert np.array_equal(
        superfw(g, plan=loaded).dist, superfw(g, plan=plan).dist
    )


def _save_as_v2(plan, path) -> None:
    """Write ``plan`` in format v2: a trail with out- and in-neighbor lists."""
    plan.save(path)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    header = json.loads(bytes(arrays.pop("header")).decode())
    header["version"] = 2
    concat, ptr = arrays.pop("trail_nbr_concat"), arrays.pop("trail_nbr_ptr")
    arrays.update(trail_out_concat=concat, trail_out_ptr=ptr,
                  trail_in_concat=concat, trail_in_ptr=ptr)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(),
                                          dtype=np.uint8), **arrays)


def test_plan_v2_loads_undirected_trails_and_rejects_directed(tmp_path):
    assert PLAN_FORMAT_VERSION == 5
    g = _graph("undirected", 7)
    plan = analyze(g, reduce=True)
    path = tmp_path / "u.plan.npz"
    _save_as_v2(plan, path)
    loaded = Plan.load(path)
    assert loaded.plan_id == plan.plan_id
    assert [a.tolist() for a in loaded.trail.nbrs] == [
        a.tolist() for a in plan.trail.nbrs]
    assert np.array_equal(superfw(g, plan=loaded).dist,
                          superfw(g, plan=plan).dist)
    # A v2 directed trail followed arc directions: loading it raises, so
    # the plan cache evicts it as a miss and analyzes again.
    dg = _graph("directed", 7)
    cache = PlanCache(directory=str(tmp_path / "cache"))
    fresh = analyze(dg, reduce=True)
    key = cache.key_for(dg, reduce=True)
    os.makedirs(tmp_path / "cache", exist_ok=True)
    _save_as_v2(fresh, cache._path_for(key))
    with pytest.raises(ValueError, match="directed trail"):
        Plan.load(cache._path_for(key))
    got = cache.get_or_analyze(dg, reduce=True)
    assert cache.stale_evictions == 1
    assert got.plan_id == fresh.plan_id and got.trail is not None
    assert Plan.load(cache._path_for(key)).trail.n_events == fresh.trail.n_events


def test_plan_without_trail_roundtrip_unchanged(tmp_path):
    g = _graph("undirected", 8)
    plan = analyze(g)
    path = tmp_path / "p.plan.npz"
    plan.save(path)
    loaded = Plan.load(path)
    assert loaded.trail is None and loaded.score_report is None
    assert loaded.plan_id == plan.plan_id


def test_autoselect_deterministic():
    g = _graph("undirected", 11)
    a = analyze(g, ordering="auto", reduce=True)
    b = analyze(g, ordering="auto", reduce=True)
    assert a.plan_id == b.plan_id
    assert a.ordering.method == b.ordering.method
    assert np.array_equal(a.ordering.perm, b.ordering.perm)
    assert a.score_report == b.score_report
    assert set(a.score_report["candidates"]) == {"nd", "amd"}


def test_reduce_changes_plan_key():
    g = _graph("undirected", 12)
    assert (
        analyze(g, reduce=True).plan_id != analyze(g, reduce=False).plan_id
    )


def _same_analysis(a, b) -> bool:
    return (np.array_equal(a.ordering.perm, b.ordering.perm)
            and np.array_equal(a.structure.snode_ptr, b.structure.snode_ptr)
            and np.array_equal(a.structure.parent, b.structure.parent))


def test_trail_depths_follow_the_elimination_chain():
    # A path is eliminated from vertex 0 on, each vertex below the next.
    trail = build_trail(Graph.from_edges(6, [(i, i + 1, 1.0) for i in range(5)]))
    assert trail.n_events == 5
    assert trail_depths(trail).tolist() == [5, 4, 3, 2, 1]
    star = build_trail(Graph.from_edges(5, [(0, i, 1.0) for i in range(1, 5)]))
    assert trail_depths(star).max() <= 2


def test_reduce_auto_keeps_road_trails_only():
    road = road_network_like(600, seed=3)
    # One rule for both graph kinds: a directed road network's trail is
    # its symmetric pattern's, kept like the undirected one.
    for g in (road, orient_randomly(road, seed=0)):
        auto = analyze(g, reduce="auto")
        assert auto_keeps(build_trail(g)) and auto.trail is not None
        assert auto.params["reduce"] == "auto"
        assert _same_analysis(auto, analyze(g, reduce=True))
    path = Graph.from_edges(300, [(i, i + 1, 1.0) for i in range(299)])
    mesh = delaunay_mesh(300, seed=3)
    for g in (path, mesh, orient_randomly(mesh, seed=0)):
        assert not auto_keeps(build_trail(g))
        plan = analyze(g, reduce="auto")
        assert plan.trail is None
        assert _same_analysis(plan, analyze(g, reduce=False))
    with pytest.raises(ValueError, match="reduce must be"):
        analyze(road, reduce="yes")


def test_amd_ordering_valid_and_deterministic():
    g = _graph("undirected", 13)
    o1 = amd_ordering(g)
    o2 = amd_ordering(g)
    assert o1.method == "amd"
    assert np.array_equal(np.sort(o1.perm), np.arange(g.n))
    assert np.array_equal(o1.perm, o2.perm)
    # Any permutation is a legal SuperFW ordering: the result must match.
    assert np.array_equal(
        superfw(g, ordering="amd", seed=0).dist, superfw(g, seed=0).dist
    )


# ----------------------------------------------------------------------
# PlanCache disk tier: a newer-format file is evicted, not fatal.
# ----------------------------------------------------------------------
def test_plan_cache_evicts_stale_disk_plan(tmp_path):
    g = _graph("undirected", 14)
    cache = PlanCache(directory=str(tmp_path))
    key = cache.key_for(g, reduce=True)
    path = cache._path_for(key)
    header = {"format": "repro-plan", "version": PLAN_FORMAT_VERSION + 97}
    os.makedirs(tmp_path, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(
            fh,
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        )
    plan = cache.get_or_analyze(g, reduce=True)
    assert plan.trail is not None
    assert cache.stale_evictions == 1
    assert cache.stats()["stale_evictions"] == 1
    # The stale file was replaced by a loadable v-current plan.
    reloaded = Plan.load(path)
    assert reloaded.plan_id == plan.plan_id
    # Second acquisition comes from memory, no further eviction.
    assert cache.get_or_analyze(g, reduce=True) is plan
    assert cache.stale_evictions == 1


# ----------------------------------------------------------------------
# Session, serving tier, and the api guard.
# ----------------------------------------------------------------------
def test_session_solve_and_commit_exact_under_reduce():
    g = _graph("undirected", 15)
    session = APSPSession(g, reduce=True, ordering="auto")
    res = session.solve()
    assert np.array_equal(res.dist, superfw(g, seed=0).dist)
    edges = session.graph.edge_array()
    u, v, w = int(edges[0][0]), int(edges[0][1]), float(edges[0][2])
    session.apply_updates([(u, v, w + 3.0)])  # increase forces a re-solve
    session.commit()
    assert np.array_equal(
        np.asarray(session.dist), superfw(session.graph, seed=0).dist
    )
    session.close()


@pytest.mark.parametrize(
    "kind",
    ["undirected", "directed", "directed-negative", "directed-disconnected"],
)
def test_hub_labels_exact_under_reduce(kind):
    g = _graph(kind, 16)
    session = APSPSession(g, reduce=True)
    index = HubLabelIndex.build(session)
    assert index.n == g.n
    # Every trail vertex, directed or not, hangs off the etree as a
    # chain-suffix leaf, so an epoch-less build reads the factor.
    assert index.source == "factor" and session._epoch is None
    assert index.trail_events == session.plan.trail.n_events
    i, j = np.meshgrid(np.arange(g.n), np.arange(g.n), indexing="ij")
    got = index.query_many(i.ravel(), j.ravel()).reshape(g.n, g.n)
    assert np.array_equal(got, np.asarray(session.dist))
    session.close()


def test_apsp_reduce_auto_is_analyze_reduce_auto():
    # analyze(reduce="auto") drops this mesh's small simplicial trail;
    # apsp must decide the same way, and accept the plan it describes.
    g = delaunay_mesh(300, seed=0)
    plan = analyze(g, reduce="auto")
    assert plan.trail is None and build_trail(g).n_eliminated > 0
    result = apsp(g, reduce="auto")
    assert result.meta["plan"].plan_id == plan.plan_id
    assert result.meta["plan"].trail is None
    again = apsp(g, plan=plan, reduce="auto")
    assert np.array_equal(again.dist, result.dist)


def test_apsp_reduce_guard():
    g = _graph("undirected", 17)
    baseline = apsp(g, method="superfw")
    reduced = apsp(g, method="superfw", reduce=True)
    assert np.array_equal(reduced.dist, baseline.dist)
    with pytest.raises(ReproError):
        apsp(g, method="dense-fw", reduce=True)
    with pytest.raises(ReproError):
        apsp(g, method="blocked-fw", reduce=True)

"""The first-class plan layer: keys, caching, serialization, reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import apsp
from repro.core.blocked_fw import blocked_floyd_warshall
from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import superfw
from repro.graphs import generators as gen
from repro.graphs.digraph import DiGraph, orient_randomly
from repro.graphs.graph import Graph
from repro.plan import (
    APSPSession,
    Plan,
    PlanCache,
    TilingPlan,
    analyze,
    make_tiling,
    plan_cache_key,
    structure_hash,
)
from repro.resilience.errors import PlanMismatchError, ReproError
from repro.serve import HubLabelIndex

from conftest import scipy_apsp


def _perturbed(graph, seed=7):
    """Same structure, different weights."""
    rng = np.random.default_rng(seed)
    if isinstance(graph, DiGraph):
        return graph.with_weights(
            graph.weights + rng.uniform(0.1, 1.0, graph.weights.shape[0])
        )
    # Undirected CSR mirrors each edge; perturb via the edge list so both
    # slots stay consistent.
    edges = graph.edge_array()
    edges[:, 2] += rng.uniform(0.1, 1.0, edges.shape[0])
    return Graph.from_edges(graph.n, edges)


# ---------------------------------------------------------------------------
# Structure keys
# ---------------------------------------------------------------------------


def test_structure_hash_ignores_weights(grid_graph):
    reweighted = _perturbed(grid_graph)
    assert structure_hash(grid_graph) == structure_hash(reweighted)


def test_structure_hash_sees_edge_additions(grid_graph):
    edges = grid_graph.edge_array()
    extra = np.vstack([edges, [0, grid_graph.n - 1, 1.0]])
    bigger = Graph.from_edges(grid_graph.n, extra)
    assert structure_hash(grid_graph) != structure_hash(bigger)


def test_structure_hash_distinguishes_directedness():
    g = gen.grid2d(5, 5, seed=0)
    dg = orient_randomly(g, seed=0)
    assert structure_hash(g) != structure_hash(dg)


def test_cache_key_includes_params(grid_graph):
    key = structure_hash(grid_graph)
    assert plan_cache_key(key, {"ordering": "nd"}) != plan_cache_key(
        key, {"ordering": "bfs"}
    )
    # Defaults are filled in, so {} and the explicit defaults coincide.
    assert plan_cache_key(key, {}) == plan_cache_key(key, {"ordering": "nd"})


# ---------------------------------------------------------------------------
# Plan verification
# ---------------------------------------------------------------------------


def test_plan_matches_reweighted_graph(grid_graph):
    plan = analyze(grid_graph)
    assert plan.matches(_perturbed(grid_graph))
    plan.ensure(_perturbed(grid_graph))  # must not raise


def test_plan_rejects_structural_change(grid_graph, mesh_graph):
    plan = analyze(grid_graph)
    assert not plan.matches(mesh_graph)
    with pytest.raises(PlanMismatchError):
        plan.ensure(mesh_graph)
    # PlanMismatchError keeps the historical ValueError contract.
    with pytest.raises(ValueError):
        plan.ensure(mesh_graph)


def test_plan_id_stable_and_param_sensitive(grid_graph):
    assert analyze(grid_graph).plan_id == analyze(grid_graph).plan_id
    assert (
        analyze(grid_graph).plan_id
        != analyze(grid_graph, ordering="bfs").plan_id
    )


# ---------------------------------------------------------------------------
# Warm solves: zero preprocessing, bit-identical distances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["superfw", "parallel-superfw"])
def test_warm_solve_bit_identical_and_zero_preprocessing(grid_graph, method):
    plan = analyze(grid_graph)
    reweighted = _perturbed(grid_graph)
    cold = apsp(reweighted, method=method)
    warm = apsp(reweighted, method=method, plan=plan)
    assert np.array_equal(cold.dist, warm.dist)
    assert warm.meta["plan_reused"] is True
    assert warm.meta["plan_id"] == plan.plan_id
    # Zero ordering/symbolic work on the warm path.
    assert "ordering" not in warm.timings
    assert "symbolic" not in warm.timings
    np.testing.assert_allclose(warm.dist, scipy_apsp(reweighted))


def test_warm_process_backend_bit_identical(grid_graph):
    plan = analyze(grid_graph)
    reweighted = _perturbed(grid_graph)
    cold = parallel_superfw(reweighted, backend="process", num_workers=2)
    warm = parallel_superfw(
        reweighted, plan=plan, backend="process", num_workers=2
    )
    assert np.array_equal(cold.dist, warm.dist)
    assert warm.meta["plan_reused"] is True
    assert "ordering" not in warm.timings


def test_warm_multifrontal_bit_identical(grid_graph):
    """The factor-built labels on a reused plan equal a cold build's."""
    plan = analyze(grid_graph)
    reweighted = _perturbed(grid_graph)
    cold = HubLabelIndex.build(APSPSession(reweighted))
    warm_session = APSPSession(reweighted, plan=plan)
    warm = HubLabelIndex.build(warm_session)
    assert warm_session.plan is plan
    assert warm.source == cold.source == "factor"
    for name in ("ptr", "hubs", "dto", "dfrom"):
        assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes()


def test_plan_not_for_other_structure(grid_graph, mesh_graph):
    plan = analyze(grid_graph)
    for call in (
        lambda: superfw(mesh_graph, plan=plan),
        lambda: parallel_superfw(mesh_graph, plan=plan),
        lambda: APSPSession(mesh_graph, plan=plan),
    ):
        with pytest.raises(ValueError):
            call()


def test_apsp_plan_rejected_for_unaware_method(grid_graph):
    with pytest.raises(ReproError):
        apsp(grid_graph, method="dijkstra", plan=analyze(grid_graph))


def test_directed_plan_reuse_keeps_pattern():
    dg = orient_randomly(gen.grid2d(6, 6, seed=0), seed=1)
    plan = analyze(dg)
    assert plan.directed
    assert plan.pattern is not None and not isinstance(plan.pattern, DiGraph)
    reweighted = dg.with_weights(dg.weights + 0.25)
    cold = superfw(reweighted)
    warm = superfw(reweighted, plan=plan)
    assert np.array_equal(cold.dist, warm.dist)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path, grid_graph):
    plan = analyze(grid_graph)
    path = tmp_path / "grid.plan.npz"
    plan.save(path)
    loaded = Plan.load(path)
    assert loaded.plan_id == plan.plan_id
    assert loaded.key == plan.key
    assert loaded.n == plan.n
    assert np.array_equal(loaded.ordering.perm, plan.ordering.perm)
    assert np.array_equal(
        loaded.structure.snode_ptr, plan.structure.snode_ptr
    )
    assert np.array_equal(loaded.structure.parent, plan.structure.parent)
    assert np.array_equal(loaded.etree, plan.etree)
    assert np.array_equal(loaded.col_counts, plan.col_counts)
    assert len(loaded.snode_rows) == len(plan.snode_rows)
    for a, b in zip(loaded.snode_rows, plan.snode_rows):
        assert np.array_equal(a, b)
    # And it actually solves, bit-identically.
    warm = superfw(grid_graph, plan=loaded)
    cold = superfw(grid_graph)
    assert np.array_equal(warm.dist, cold.dist)


def test_load_rejects_foreign_file(tmp_path):
    path = tmp_path / "not_a_plan.npz"
    np.savez(path, junk=np.arange(3))
    with pytest.raises(Exception):
        Plan.load(path)


# ---------------------------------------------------------------------------
# PlanCache
# ---------------------------------------------------------------------------


def test_cache_weight_change_hits_edge_change_misses(grid_graph):
    cache = PlanCache()
    p1 = cache.get_or_analyze(grid_graph)
    assert cache.misses == 1 and cache.hits == 0
    p2 = cache.get_or_analyze(_perturbed(grid_graph))
    assert p2 is p1 and cache.hits == 1
    edges = np.vstack(
        [grid_graph.edge_array(), [0, grid_graph.n - 1, 1.0]]
    )
    bigger = Graph.from_edges(grid_graph.n, edges)
    p3 = cache.get_or_analyze(bigger)
    assert p3 is not p1 and cache.misses == 2


def test_cache_param_sensitivity(grid_graph):
    cache = PlanCache()
    nd = cache.get_or_analyze(grid_graph)
    bfs = cache.get_or_analyze(grid_graph, ordering="bfs")
    assert nd is not bfs
    assert len(cache) == 2


def test_cache_lru_eviction():
    cache = PlanCache(max_entries=2)
    for i in range(3):
        cache.get_or_analyze(gen.grid2d(4 + i, 4, seed=0))
    assert len(cache) == 2
    assert cache.evictions == 1


def test_cache_disk_tier_warm_start(tmp_path, grid_graph):
    d = str(tmp_path / "plans")
    first = PlanCache(directory=d)
    plan = first.get_or_analyze(grid_graph)
    # A fresh process (modelled by a fresh cache) warm-starts from disk.
    second = PlanCache(directory=d)
    reloaded = second.get_or_analyze(grid_graph)
    assert second.disk_hits == 1 and second.misses == 0
    assert reloaded.plan_id == plan.plan_id
    warm = superfw(grid_graph, plan=reloaded)
    assert np.array_equal(warm.dist, superfw(grid_graph).dist)


# ---------------------------------------------------------------------------
# Tiling plans (blocked FW's share of the split) and the fallback chain
# ---------------------------------------------------------------------------


def test_make_tiling_bounds():
    t = make_tiling(10, 4)
    assert isinstance(t, TilingPlan)
    assert t.nb == 3
    assert list(t.bounds) == [0, 4, 8, 10]


def test_blocked_fw_consumes_tiling(grid_graph):
    base = blocked_floyd_warshall(grid_graph, block_size=16)
    tiled = blocked_floyd_warshall(
        grid_graph, plan=make_tiling(grid_graph.n, 16)
    )
    assert np.array_equal(base.dist, tiled.dist)
    # A supernodal plan works too (its n seeds the tiling).
    via_plan = blocked_floyd_warshall(
        grid_graph, block_size=16, plan=analyze(grid_graph)
    )
    assert np.array_equal(base.dist, via_plan.dist)


def test_blocked_fw_rejects_mismatched_tiling(grid_graph):
    with pytest.raises(ValueError):
        blocked_floyd_warshall(grid_graph, plan=make_tiling(grid_graph.n + 1))


def test_fallback_chain_accepts_plan(grid_graph):
    plan = analyze(grid_graph)
    result = apsp(grid_graph, method="auto", plan=plan)
    np.testing.assert_allclose(result.dist, scipy_apsp(grid_graph))


# ---------------------------------------------------------------------------
# Analyze options beside a supplied plan
# ---------------------------------------------------------------------------
def test_plan_rejects_unknown_analyze_option():
    g = gen.delaunay_mesh(40, seed=0)
    with pytest.raises(TypeError, match="leaf_sise"):
        superfw(g, plan=analyze(g), leaf_sise=7)


@pytest.mark.parametrize(
    "option", [{"leaf_size": 3}, {"ordering": "amd"}, {"reduce": True},
               {"seed": 1}]
)
def test_plan_rejects_disagreeing_analyze_option(option):
    g = gen.delaunay_mesh(40, seed=0)
    (key,) = option
    with pytest.raises(ValueError, match=key):
        superfw(g, plan=analyze(g), **option)
    with pytest.raises(ValueError, match=key):
        parallel_superfw(g, plan=analyze(g), **option)


def test_plan_accepts_equal_analyze_options():
    from repro.ordering.amd import amd_ordering
    from repro.ordering.base import Ordering

    g = gen.delaunay_mesh(40, seed=0)
    plan = analyze(g, ordering="amd", leaf_size=3, seed=2)
    base = superfw(g, plan=plan)
    same = superfw(g, plan=plan, ordering="amd", leaf_size=3, seed=2,
                   reduce=False)
    assert np.array_equal(base.dist, same.dist)
    # A prebuilt ordering compares by the method:digest tag analyze records.
    order = amd_ordering(plan.pattern, seed=0)
    custom = analyze(g, ordering=order)
    assert np.array_equal(
        superfw(g, plan=custom, ordering=order).dist, superfw(g, plan=custom).dist
    )
    other = Ordering(perm=order.perm[::-1].copy(), method="amd")
    with pytest.raises(ValueError, match="ordering"):
        superfw(g, plan=custom, ordering=other)


def test_cli_plan_cache_keeps_reduce(tmp_path, capsys):
    from repro.cli import main

    args = ["solve", "--generate", "road_network_like:300", "--reduce"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main(args + ["--plan-cache", str(tmp_path)]) == 0
    cached = capsys.readouterr().out

    def ops(out):
        return next(line for line in out.splitlines()
                    if line.startswith("semiring ops:"))

    # The cached plan is the reduced one, so the solve does the same work.
    assert ops(cached) == ops(plain)
    assert "(analyzed, cache dir" in cached

"""APSPSession: validate once, plan once, solve many times."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import scipy_apsp

from repro.core.api import apsp
from repro.graphs import generators as gen
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.plan import APSPSession, PlanCache, analyze
from repro.resilience.errors import (
    GraphValidationError,
    NegativeCycleError,
    UnknownMethodError,
)


def _new_weights(graph: Graph, seed=11) -> np.ndarray:
    """A mirrored per-arc weight array with fresh values."""
    rng = np.random.default_rng(seed)
    edges = graph.edge_array()
    edges[:, 2] = rng.uniform(0.5, 2.0, edges.shape[0])
    return Graph.from_edges(graph.n, edges).weights


def test_session_rejects_unknown_method(grid_graph):
    with pytest.raises(UnknownMethodError):
        APSPSession(grid_graph, method="dijkstra")


def test_session_validates_once_up_front():
    g = Graph.from_edges(3, [(0, 1, np.nan), (1, 2, 1.0)])
    with pytest.raises(GraphValidationError):
        APSPSession(g)


@pytest.mark.parametrize(
    "method,options",
    [
        ("superfw", {}),
        ("superbfs", {}),
        ("parallel-superfw", {"num_workers": 2}),
        ("parallel-superfw", {"backend": "process", "num_workers": 2}),
    ],
    ids=["superfw", "superbfs", "thread", "process"],
)
def test_warm_solves_bit_identical_to_cold(grid_graph, method, options):
    """The acceptance criterion: zero preprocessing, identical bits."""
    with APSPSession(grid_graph, method=method, **options) as sess:
        first = sess.solve()
        weights = _new_weights(grid_graph)
        warm = sess.solve(weights)
        # Bit-identical to a cold solve on the perturbed graph.
        cold = apsp(
            grid_graph.with_weights(weights), method=method, **options
        )
        assert np.array_equal(warm.dist, cold.dist)
        # Warm solves run zero ordering/symbolic work...
        assert "ordering" not in warm.timings
        assert "symbolic" not in warm.timings
        # ...and the plan identity is stable across solves.
        assert (
            warm.meta["session"]["plan_id"]
            == first.meta["session"]["plan_id"]
        )
        assert warm.meta["plan_reused"] is True
        np.testing.assert_allclose(
            warm.dist, scipy_apsp(grid_graph.with_weights(weights))
        )


def test_session_per_solve_weight_validation(grid_graph):
    sess = APSPSession(grid_graph)
    bad = grid_graph.weights.copy()
    bad[0] = np.nan
    with pytest.raises(GraphValidationError):
        sess.solve(bad)
    with pytest.raises(GraphValidationError):
        sess.solve(np.ones(3))  # wrong arc count


def test_warm_solve_checks_weight_symmetry_without_resorting(grid_graph, monkeypatch):
    sess = APSPSession(grid_graph)
    sess.solve()
    weights = _new_weights(grid_graph)
    sorts = []
    real = Graph._mirror_slots

    def spy(self, rows):
        sorts.append(self.n)
        return real(self, rows)

    monkeypatch.setattr(Graph, "_mirror_slots", spy)
    warm = sess.solve(weights)
    assert sorts == []
    assert sess.graph.indices is grid_graph.indices
    np.testing.assert_allclose(warm.dist, scipy_apsp(grid_graph.with_weights(weights)))
    asymmetric = weights.copy()
    asymmetric[0] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        sess.solve(asymmetric)
    assert sorts == []


def test_session_negative_cycle_detection():
    dg = DiGraph.from_edges(
        3, [(0, 1, 1.0), (1, 2, -2.0), (2, 0, 0.5)]
    )
    with pytest.raises(NegativeCycleError):
        APSPSession(dg, detect_negative_cycles=True)


def test_session_process_pool_persists(grid_graph):
    with APSPSession(
        grid_graph,
        method="parallel-superfw",
        backend="process",
        num_workers=2,
    ) as sess:
        r1 = sess.solve()
        r2 = sess.solve(_new_weights(grid_graph))
        assert r1.meta["pooled"] and r2.meta["pooled"]
        assert sess._pool is not None and sess._pool.solves == 2
        assert sess.stats()["pooled"]
    # Context exit released the pool.
    assert sess._pool is None
    with pytest.raises(RuntimeError):
        sess.solve()


def test_session_uses_cache(grid_graph):
    cache = PlanCache()
    s1 = APSPSession(grid_graph, cache=cache)
    s1.solve()
    # Second session on the same structure reuses the cached plan.
    s2 = APSPSession(_reweighted(grid_graph), cache=cache)
    assert s2.plan is s1.plan
    assert cache.hits >= 1


def _reweighted(graph: Graph) -> Graph:
    return graph.with_weights(_new_weights(graph))


def test_session_accepts_prebuilt_plan(grid_graph):
    plan = analyze(grid_graph)
    sess = APSPSession(grid_graph, plan=plan)
    assert sess.plan is plan
    result = sess.solve()
    assert result.meta["plan"] is plan


def test_session_superbfs_orders_by_bfs(grid_graph):
    sess = APSPSession(grid_graph, method="superbfs")
    assert sess.plan.ordering.method == "bfs"
    np.testing.assert_allclose(sess.solve().dist, scipy_apsp(grid_graph))


# ---------------------------------------------------------------------------
# update_edge: rank-1 folds vs full re-solves vs plan invalidation
# ---------------------------------------------------------------------------


def test_update_edge_decrease_is_fast_and_exact(grid_graph):
    sess = APSPSession(grid_graph)
    sess.solve()
    edges = grid_graph.edge_array()
    u, v, w = int(edges[0, 0]), int(edges[0, 1]), float(edges[0, 2])
    improved = sess.update_edge(u, v, w / 4.0)
    assert improved >= 0
    assert sess.fast_updates == 1 and sess.recomputes == 0
    np.testing.assert_allclose(sess.dist, scipy_apsp(sess.graph))


def test_update_edge_increase_resolves(grid_graph):
    sess = APSPSession(grid_graph)
    sess.solve()
    plan_before = sess.plan
    edges = grid_graph.edge_array()
    u, v, w = int(edges[0, 0]), int(edges[0, 1]), float(edges[0, 2])
    assert sess.update_edge(u, v, w * 10.0) == -1
    assert sess.recomputes == 1
    # Weight increase keeps the structure, hence the plan.
    assert sess.plan is plan_before
    np.testing.assert_allclose(sess.dist, scipy_apsp(sess.graph))


def test_update_edge_addition_invalidates_plan(grid_graph):
    sess = APSPSession(grid_graph)
    sess.solve()
    old_id = sess.plan.plan_id
    u, v = 0, grid_graph.n - 1  # grid corners: not adjacent
    assert np.all(grid_graph.neighbors(u) != v)
    improved = sess.update_edge(u, v, 0.5)
    assert improved > 0
    # The fold kept the matrix exact without a plan...
    np.testing.assert_allclose(sess.dist, scipy_apsp(sess.graph))
    assert sess.plan is None
    # ...and the next full solve re-analyzes the new structure.
    result = sess.solve()
    assert sess.plan is not None and sess.plan.plan_id != old_id
    np.testing.assert_allclose(result.dist, scipy_apsp(sess.graph))


def test_update_edge_addition_reanalyzes_through_cache(grid_graph):
    cache = PlanCache()
    sess = APSPSession(grid_graph, cache=cache)
    sess.solve()
    sess.update_edge(0, grid_graph.n - 1, 0.5)
    sess.solve()
    assert cache.misses == 2  # original structure + edited structure


def test_update_edge_rejects_negative_undirected(grid_graph):
    sess = APSPSession(grid_graph)
    with pytest.raises(ValueError):
        sess.update_edge(0, 1, -1.0)


def test_update_edge_directed():
    dg = DiGraph.from_edges(
        4,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 5.0)],
    )
    sess = APSPSession(dg)
    sess.solve()
    sess.update_edge(0, 2, 0.5)
    from scipy.sparse.csgraph import shortest_path

    expect = shortest_path(sess.graph.to_scipy(), method="D")
    np.fill_diagonal(expect, 0.0)
    np.testing.assert_allclose(sess.dist, expect)

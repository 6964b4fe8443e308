"""Incremental APSP maintenance (edge improvements, Carré/SMW style).

Every single-edge update goes through ``APSPSession.update_edge``, a
one-element commit: decreases (and brand-new edges) fold into the
published epoch, increases re-solve on the cached plan.
"""

import numpy as np
import pytest

from repro.core.incremental import apply_batch_improvements, quantize_weights
from repro.core.superfw import superfw
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.plan.session import APSPSession


@pytest.fixture
def dyadic_mesh(mesh_graph):
    # Dyadic weights: folds and from-scratch solves agree bit for bit.
    return quantize_weights(mesh_graph)


def _far_non_edge(session):
    dist = np.asarray(session.dist)
    far = np.unravel_index(np.argmax(np.where(np.isfinite(dist), dist, -1)), dist.shape)
    return int(far[0]), int(far[1])


def test_rank1_update_matches_recompute(dyadic_mesh):
    sess = APSPSession(dyadic_mesh, seed=0)
    edges = dyadic_mesh.edge_array()
    u, v, w = int(edges[3, 0]), int(edges[3, 1]), float(edges[3, 2])
    improved = sess.update_edge(u, v, w / 8)
    assert improved > 0
    assert sess.fast_updates == 1
    assert np.array_equal(sess.dist, superfw(sess.graph, seed=0).dist)


def test_new_edge_fast_path(dyadic_mesh):
    sess = APSPSession(dyadic_mesh, seed=0)
    u, v = _far_non_edge(sess)
    assert not dyadic_mesh.has_edge(u, v)
    improved = sess.update_edge(u, v, 2.0**-10)
    assert improved > 0
    assert sess.dist[u, v] == 2.0**-10
    assert np.array_equal(sess.dist, superfw(sess.graph, seed=0).dist)
    assert sess.fast_updates == 1 and sess.recomputes == 0
    assert sess.plan is None  # the pattern changed; re-analyzed lazily


def test_weight_increase_triggers_recompute(dyadic_mesh):
    sess = APSPSession(dyadic_mesh, seed=0)
    edges = dyadic_mesh.edge_array()
    u, v, w = int(edges[0, 0]), int(edges[0, 1]), float(edges[0, 2])
    out = sess.update_edge(u, v, w * 64)
    assert out == -1
    assert sess.recomputes == 1 and sess.fast_updates == 0
    assert np.array_equal(sess.dist, superfw(sess.graph, seed=0).dist)


def test_sequence_of_updates_stays_consistent(dyadic_mesh):
    rng = np.random.default_rng(0)
    sess = APSPSession(dyadic_mesh, seed=0)
    for _ in range(5):
        edges = sess.graph.edge_array()
        e = edges[rng.integers(0, edges.shape[0])]
        sess.update_edge(int(e[0]), int(e[1]), float(e[2]) * 0.5)
    assert np.array_equal(sess.dist, superfw(sess.graph, seed=0).dist)
    assert sess.fast_updates == 5 and sess.recomputes == 0


def test_directed_incremental():
    rng = np.random.default_rng(1)
    arcs = []
    for _ in range(200):
        u, v = rng.integers(0, 60, 2)
        if u != v:
            arcs.append((int(u), int(v), float(rng.integers(32, 128)) / 64))
    dg = DiGraph.from_edges(60, arcs)
    sess = APSPSession(dg, seed=0)
    a = dg.arc_array()[0]
    improved = sess.update_edge(int(a[0]), int(a[1]), float(a[2]) / 128)
    assert improved >= 1
    assert isinstance(sess.graph, DiGraph)
    # A directed update reweights the one arc u→v, never its reverse.
    assert np.count_nonzero(sess.graph.weights != dg.weights) == 1
    assert np.array_equal(sess.dist, superfw(sess.graph, seed=0).dist)


def test_negative_undirected_rejected(dyadic_mesh):
    sess = APSPSession(dyadic_mesh, seed=0)
    with pytest.raises(ValueError):
        sess.update_edge(0, 1, -1.0)


def test_single_arc_fold_primitive():
    g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    dist = superfw(g, seed=0).dist.copy()
    # Shortcut 0-3 with weight 0.5.
    count = apply_batch_improvements(dist, [(0, 3, 0.5)])
    assert count > 0
    assert dist[0, 3] == 0.5
    assert dist[1, 3] == 1.5  # 1 -> 0 -> 3 through the shortcut
    assert dist[3, 1] == 1.5  # symmetric (undirected mode)


def test_single_arc_fold_directed_only_one_way():
    dg = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    dist = superfw(dg, seed=0).dist.copy()
    apply_batch_improvements(dist, [(2, 0, 0.125)], directed=True)
    assert dist[2, 0] == 0.125
    assert dist[0, 0] == 0.0
    # Reverse arc 0->2 unchanged by the directed update beyond real paths.
    assert dist[0, 2] == 2.0


def test_single_arc_fold_validates():
    dist = np.zeros((3, 3))
    with pytest.raises(ValueError):
        apply_batch_improvements(dist, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        apply_batch_improvements(dist, [(0, 5, 1.0)])
    with pytest.raises(ValueError):
        apply_batch_improvements(np.zeros((2, 3)), [(0, 1, 1.0)])


def test_noop_update_improves_nothing(dyadic_mesh):
    sess = APSPSession(dyadic_mesh, seed=0)
    edges = dyadic_mesh.edge_array()
    u, v, w = int(edges[0, 0]), int(edges[0, 1]), float(edges[0, 2])
    assert sess.update_edge(u, v, w) == 0  # same weight: a net no-op commit
    assert sess.fast_updates == 0 and sess.recomputes == 0


# ----------------------------------------------------------------------
# Structure: reweights keep the plan, inserts change the pattern
# ----------------------------------------------------------------------
def test_update_edge_reweight_keeps_structure(dyadic_mesh):
    sess = APSPSession(dyadic_mesh, seed=0)
    sess.solve()
    graph_before, plan_before = sess.graph, sess.plan
    edges = dyadic_mesh.edge_array()
    u, v, w = int(edges[2, 0]), int(edges[2, 1]), float(edges[2, 2])
    sess.update_edge(u, v, w / 2)
    # A reweight keeps the pattern, hence the plan; the new weights are
    # a copy-on-write array, so the previous epoch's graph is untouched.
    assert sess.plan is plan_before
    assert np.array_equal(sess.graph.indptr, graph_before.indptr)
    assert np.array_equal(sess.graph.indices, graph_before.indices)
    lo, hi = sess.graph.indptr[u], sess.graph.indptr[u + 1]
    assert sess.graph.weights[lo:hi][sess.graph.indices[lo:hi] == v] == w / 2
    assert np.array_equal(graph_before.weights, dyadic_mesh.weights)


def test_insert_still_rebuilds_structure(dyadic_mesh):
    sess = APSPSession(dyadic_mesh, seed=0)
    graph_before = sess.graph
    u, v = _far_non_edge(sess)
    sess.update_edge(u, v, 2.0**-10)
    assert sess.graph is not graph_before  # a new edge changes the pattern
    assert sess.graph.has_edge(u, v)


def test_caller_graph_never_mutated(dyadic_mesh):
    snapshot = dyadic_mesh.weights.copy()
    sess = APSPSession(dyadic_mesh, seed=0)
    edges = dyadic_mesh.edge_array()
    u, v, w = int(edges[1, 0]), int(edges[1, 1]), float(edges[1, 2])
    sess.update_edge(u, v, w / 4)
    sess.update_edge(u, v, w * 4)  # recompute path
    assert np.array_equal(dyadic_mesh.weights, snapshot)


# ----------------------------------------------------------------------
# Rank-k batch fold and the synthetic reweight stream
# ----------------------------------------------------------------------
def test_apply_batch_improvements_matches_recompute(mesh_graph):
    dist = superfw(mesh_graph, seed=0).dist.copy()
    edges = mesh_graph.edge_array()
    updates = [
        (int(edges[i, 0]), int(edges[i, 1]), float(edges[i, 2]) / 3)
        for i in (0, 4, 9, 13)
    ]
    improved = apply_batch_improvements(dist, updates)
    assert improved > 0
    new = mesh_graph.edge_array()
    for u, v, w in updates:
        mask = ((new[:, 0] == u) & (new[:, 1] == v)) | (
            (new[:, 0] == v) & (new[:, 1] == u)
        )
        new[mask, 2] = w
    reference = superfw(Graph.from_edges(mesh_graph.n, new), seed=0)
    assert np.allclose(dist, reference.dist)


def test_apply_batch_improvements_empty_is_noop():
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    before = dist.copy()
    assert apply_batch_improvements(dist, []) == 0
    assert np.array_equal(dist, before)


def test_reweight_stream_deterministic_and_dyadic():
    from repro.core.incremental import WEIGHT_QUANTUM, reweight_stream
    from repro.graphs.generators import grid2d

    g = quantize_weights(grid2d(6, 6, seed=0))
    a = list(reweight_stream(g, ticks=3, per_tick=4, seed=5))
    b = list(reweight_stream(g, ticks=3, per_tick=4, seed=5))
    assert a == b  # same seed, same stream
    assert len(a) == 3 and all(len(tick) == 4 for tick in a)
    for tick in a:
        for _, _, w in tick:
            assert w >= WEIGHT_QUANTUM
            # Dyadic: an exact multiple of the quantum.
            assert w == round(w / WEIGHT_QUANTUM) * WEIGHT_QUANTUM

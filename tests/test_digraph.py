"""Directed graphs: container semantics and the directed (LU-like) solvers."""

import numpy as np
import pytest

from repro import DiGraph, apsp
from repro.core.dense_fw import floyd_warshall
from repro.core.superfw import superfw
from repro.plan import analyze
from repro.graphs.validation import check_apsp_certificate, has_negative_cycle


def _random_digraph(n=100, arcs=400, seed=0, negative=False):
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(arcs):
        u, v = rng.integers(0, n, 2)
        if u != v:
            triples.append((int(u), int(v), float(rng.uniform(0.1, 2.0))))
    if negative:
        # Reweight by potentials: arcs go negative, cycle sums unchanged.
        h = rng.uniform(0, 3, n)
        triples = [(u, v, w + h[u] - h[v]) for u, v, w in triples]
    return DiGraph.from_edges(n, triples)


def scipy_directed_apsp(dg: DiGraph) -> np.ndarray:
    from scipy.sparse.csgraph import shortest_path

    method = "BF" if dg.weights.size and dg.weights.min() < 0 else "D"
    dist = shortest_path(dg.to_scipy(), method=method, directed=True)
    np.fill_diagonal(dist, 0.0)
    return dist


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
def test_from_edges_directional():
    dg = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert dg.has_edge(0, 1)
    assert not dg.has_edge(1, 0)
    assert dg.num_arcs == 2


def test_parallel_arcs_keep_minimum():
    dg = DiGraph.from_edges(2, [(0, 1, 5.0), (0, 1, 2.0)])
    assert dg.neighbor_weights(0)[0] == 2.0


def test_self_loops_dropped():
    dg = DiGraph.from_edges(2, [(0, 0, 1.0), (0, 1, 1.0)])
    assert dg.num_arcs == 1


def test_degrees():
    dg = DiGraph.from_edges(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert dg.out_degree(0) == 2
    assert np.array_equal(dg.in_degree(), np.array([0, 1, 2]))


def test_transpose_flips_arcs():
    dg = DiGraph.from_edges(3, [(0, 1, 1.5), (1, 2, 2.5)])
    t = dg.transpose()
    assert t.has_edge(1, 0) and t.has_edge(2, 1)
    assert not t.has_edge(0, 1)
    # Involution.
    tt = t.transpose()
    assert np.allclose(tt.to_dense_dist(), dg.to_dense_dist())


def test_dense_roundtrip():
    dg = _random_digraph(30, 80, seed=1)
    dg2 = DiGraph.from_dense(dg.to_dense_dist())
    assert np.allclose(dg2.to_dense_dist(), dg.to_dense_dist())


def test_permute():
    dg = DiGraph.from_edges(3, [(0, 1, 1.0)])
    perm = np.array([1, 2, 0])  # new i is old perm[i]; old0->pos2, old1->pos0
    dp = dg.permute(perm)
    assert dp.has_edge(2, 0)


def test_symmetrized_pattern():
    dg = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 9.0), (1, 2, 1.0)])
    pattern = dg.symmetrized()
    assert pattern.num_edges == 2  # {0,1} collapses, {1,2} remains
    assert np.all(pattern.weights == 1.0)


def test_with_weights():
    dg = DiGraph.from_edges(2, [(0, 1, 1.0)])
    dg2 = dg.with_weights(np.array([7.0]))
    assert dg2.neighbor_weights(0)[0] == 7.0


def test_malformed_inputs():
    with pytest.raises(ValueError):
        DiGraph.from_edges(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        DiGraph(np.array([0, 1]), np.array([0]), np.array([1.0]))  # self-loop
    with pytest.raises(ValueError):
        DiGraph.from_dense(np.zeros((2, 3)))


# ----------------------------------------------------------------------
# Directed APSP across all backends
# ----------------------------------------------------------------------
ALL_METHODS = [
    "superfw",
    "superbfs",
    "parallel-superfw",
    "dense-fw",
    "blocked-fw",
    "dijkstra",
    "boost-dijkstra",
    "delta-stepping",
    "johnson",
    "path-doubling",
]


@pytest.mark.parametrize("method", ALL_METHODS)
def test_every_method_on_directed_graph(method):
    dg = _random_digraph(seed=3)
    oracle = scipy_directed_apsp(dg)
    assert np.allclose(apsp(dg, method=method).dist, oracle)


def test_directed_distances_are_asymmetric():
    dg = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    dist = superfw(dg, seed=0).dist
    assert dist[0, 1] == 1.0
    assert dist[1, 0] == 2.0  # must go the long way around the cycle


@pytest.mark.parametrize("method", ["superfw", "dense-fw", "johnson", "path-doubling"])
def test_negative_arcs_no_cycles(method):
    dg = _random_digraph(seed=5, negative=True)
    assert dg.weights.min() < 0
    assert not has_negative_cycle(dg)
    oracle = scipy_directed_apsp(dg)
    assert np.allclose(apsp(dg, method=method).dist, oracle)


def test_negative_cycle_detected_directed():
    dg = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, -5.0)])
    assert has_negative_cycle(dg)
    with pytest.raises(ValueError):
        superfw(dg, seed=0)
    with pytest.raises(ValueError):
        floyd_warshall(dg)


def test_plan_uses_symmetrized_pattern():
    dg = _random_digraph(seed=7)
    plan = analyze(dg, seed=0)
    assert plan.pattern is not None
    assert plan.pattern.n == dg.n
    assert plan.structure.n == dg.n


def test_certificate_skips_symmetry_for_digraphs():
    dg = _random_digraph(40, 150, seed=9)
    dist = superfw(dg, seed=0).dist
    check_apsp_certificate(dg, dist)


def test_one_way_street_unreachable():
    dg = DiGraph.from_edges(2, [(0, 1, 1.0)])
    dist = superfw(dg, seed=0).dist
    assert dist[0, 1] == 1.0
    assert np.isinf(dist[1, 0])

"""Low-treewidth APSP (paper reference [33]): ``apsp(method="treewidth")``.

The method builds hub labels from the supernodal min-plus factor
(:mod:`repro.serve.factor`) and fills the matrix from label joins.
"""

import numpy as np
import pytest

from repro import apsp
from repro.core.superfw import superfw
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.plan import APSPSession, analyze
from repro.serve import HubLabelIndex

from conftest import scipy_apsp
from test_serve import FACTOR_GRAPHS


def test_all_pairs_matches_oracle(any_graph):
    r = apsp(any_graph, method="treewidth")
    assert r.method == "treewidth"
    assert np.allclose(r.dist, scipy_apsp(any_graph))


@pytest.mark.parametrize("kind", sorted(FACTOR_GRAPHS))
def test_bit_identical_to_superfw(kind):
    """On dyadic weights every label sum is exact, so the factor's matrix
    equals the SuperFW sweep's bit for bit."""
    g = FACTOR_GRAPHS[kind]()
    assert np.array_equal(
        apsp(g, method="treewidth").dist, superfw(g, seed=0).dist
    )


def test_single_queries(mesh_graph):
    index = HubLabelIndex.build(APSPSession(mesh_graph, seed=0))
    oracle = scipy_apsp(mesh_graph)
    rng = np.random.default_rng(0)
    for _ in range(50):
        i, j = (int(x) for x in rng.integers(0, mesh_graph.n, 2))
        assert index.query_one(i, j) == pytest.approx(oracle[i, j])


def test_self_distance_zero(grid_graph):
    assert np.all(np.diag(apsp(grid_graph, method="treewidth").dist) == 0.0)


def test_factor_work_below_dense(mesh_graph):
    """O(n·tw²) factorization ≪ O(n³) — the point of the method."""
    r = apsp(mesh_graph, method="treewidth")
    assert 0 < r.meta["factor_ops"] < 0.1 * 2 * mesh_graph.n**3


def test_label_sizes_bounded_by_tree_depth(mesh_graph):
    meta = apsp(mesh_graph, method="treewidth").meta
    assert 1 <= meta["width"] <= mesh_graph.n
    assert mesh_graph.n <= meta["label_entries"] <= mesh_graph.n * meta["width"]


def test_disconnected_queries_infinite():
    g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    dist = apsp(g, method="treewidth").dist
    assert np.isinf(dist[0, 2])
    assert dist[0, 1] == 1.0


def test_directed_queries():
    rng = np.random.default_rng(2)
    arcs = [
        (int(u), int(v), float(rng.uniform(0.1, 2)))
        for u, v in rng.integers(0, 70, (250, 2))
        if u != v
    ]
    dg = DiGraph.from_edges(70, arcs)
    assert np.allclose(apsp(dg, method="treewidth").dist, superfw(dg, seed=0).dist)


def test_directed_negative_arcs():
    rng = np.random.default_rng(3)
    arcs = [
        (int(u), int(v), float(rng.uniform(0.1, 2)))
        for u, v in rng.integers(0, 50, (180, 2))
        if u != v
    ]
    h = rng.uniform(0, 3, 50)
    arcs = [(u, v, w + h[u] - h[v]) for u, v, w in arcs]
    dg = DiGraph.from_edges(50, arcs)
    assert np.allclose(apsp(dg, method="treewidth").dist, superfw(dg, seed=0).dist)


def test_negative_cycle_detected():
    dg = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, -5.0)])
    with pytest.raises(ValueError):
        apsp(dg, method="treewidth")


def test_prebuilt_ordering_accepted(mesh_graph):
    from repro.ordering.nested_dissection import nested_dissection

    nd = nested_dissection(mesh_graph, seed=0)
    r = apsp(mesh_graph, method="treewidth", ordering=nd.ordering)
    assert np.allclose(r.dist, scipy_apsp(mesh_graph))


def test_prebuilt_plan_accepted(mesh_graph):
    plan = analyze(mesh_graph, seed=0)
    r = apsp(mesh_graph, method="treewidth", plan=plan)
    assert np.array_equal(r.dist, apsp(mesh_graph, method="treewidth").dist)


def test_diagonal_consults_factor():
    """The diagonal comes out of the label join, as every other entry does,
    and matches superfw entry for entry on a directed graph."""
    rng = np.random.default_rng(4)
    arcs = [
        (int(u), int(v), float(rng.uniform(0.1, 2)))
        for u, v in rng.integers(0, 40, (160, 2))
        if u != v
    ]
    dg = DiGraph.from_edges(40, arcs)
    got = np.diag(apsp(dg, method="treewidth").dist)
    assert np.array_equal(got, np.diag(superfw(dg, seed=0).dist))


def test_cached_label_directions_do_not_alias(grid_graph):
    """On undirected graphs the two label directions are independent,
    read-only arrays: neither can be mutated through the other."""
    index = HubLabelIndex.build(APSPSession(grid_graph, seed=0))
    assert np.array_equal(index.dto, index.dfrom)
    assert not np.shares_memory(index.dto, index.dfrom)
    with pytest.raises(ValueError):
        index.dto[0] = -1e9

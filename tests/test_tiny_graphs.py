"""Degenerate inputs: 0-, 1-, and 2-vertex graphs through every backend."""

import numpy as np
import pytest

from repro import apsp, available_methods
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph


@pytest.mark.parametrize("method", sorted(set(available_methods())))
@pytest.mark.parametrize("n", [0, 1, 2])
def test_every_method_on_tiny_graphs(method, n):
    g = Graph.from_edges(n, [] if n < 2 else [(0, 1, 1.5)])
    r = apsp(g, method=method)
    assert r.dist.shape == (n, n)
    if n == 2:
        assert r.dist[0, 1] == 1.5
    if n >= 1:
        assert np.all(np.diag(r.dist) == 0.0)


def test_isolated_vertices_everywhere():
    g = Graph.from_edges(4, [(1, 2, 1.0)])
    r = apsp(g, method="superfw")
    assert np.isinf(r.dist[0, 1]) and np.isinf(r.dist[3, 2])
    assert r.dist[1, 2] == 1.0


def test_single_arc_digraph():
    dg = DiGraph.from_edges(2, [(0, 1, 2.0)])
    r = apsp(dg, method="superfw")
    assert r.dist[0, 1] == 2.0 and np.isinf(r.dist[1, 0])


def test_empty_digraph():
    dg = DiGraph.from_edges(3, [])
    r = apsp(dg, method="dense-fw")
    assert np.isinf(r.dist[0, 1])


def test_treewidth_on_tiny():
    from repro.serve import DistanceServer

    g = Graph.from_edges(2, [(0, 1, 0.5)])
    with DistanceServer(g, seed=0) as server:
        assert server.query(0, 1) == 0.5
        assert server.query(1, 1) == 0.0


def test_incremental_on_tiny():
    from repro.plan.session import APSPSession

    g = Graph.from_edges(2, [(0, 1, 3.0)])
    sess = APSPSession(g, seed=0)
    sess.update_edge(0, 1, 1.0)
    assert sess.distance(0, 1) == 1.0

"""APSP-powered graph metrics, cross-checked against networkx."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    betweenness_centrality,
    center_vertices,
    closeness_centrality,
    diameter,
    eccentricity,
    harmonic_centrality,
    radius,
)
from repro.core.superfw import superfw
from repro.graphs.generators import delaunay_mesh, grid2d
from repro.graphs.graph import Graph


@pytest.fixture(scope="module")
def mesh_and_dist():
    g = delaunay_mesh(100, seed=0)
    return g, superfw(g, seed=0).dist


def _nx_graph(g: Graph):
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    for u, v, w in g.edge_array():
        G.add_edge(int(u), int(v), weight=float(w))
    return G


def test_eccentricity_matches_networkx(mesh_and_dist):
    import networkx as nx

    g, dist = mesh_and_dist
    ours = eccentricity(dist)
    theirs = nx.eccentricity(_nx_graph(g), weight="weight")
    assert all(np.isclose(ours[v], theirs[v]) for v in range(g.n))


def test_diameter_radius_relationship(mesh_and_dist):
    _, dist = mesh_and_dist
    d, r = diameter(dist), radius(dist)
    assert r <= d <= 2 * r + 1e-9  # metric-space bound


def test_diameter_matches_networkx(mesh_and_dist):
    import networkx as nx

    g, dist = mesh_and_dist
    assert diameter(dist) == pytest.approx(nx.diameter(_nx_graph(g), weight="weight"))


def test_closeness_matches_networkx(mesh_and_dist):
    import networkx as nx

    g, dist = mesh_and_dist
    ours = closeness_centrality(dist)
    G = _nx_graph(g)
    theirs = np.array(
        [nx.closeness_centrality(G, u=v, distance="weight") for v in range(g.n)]
    )
    assert np.allclose(ours, theirs)


def test_harmonic_matches_networkx(mesh_and_dist):
    import networkx as nx

    g, dist = mesh_and_dist
    ours = harmonic_centrality(dist)
    theirs = nx.harmonic_centrality(_nx_graph(g), distance="weight")
    assert all(np.isclose(ours[v], theirs[v]) for v in range(g.n))


def test_betweenness_matches_networkx():
    import networkx as nx

    g = delaunay_mesh(80, seed=1)
    ours = betweenness_centrality(g)
    theirs = nx.betweenness_centrality(_nx_graph(g), weight="weight", normalized=True)
    assert all(np.isclose(ours[v], theirs[v], atol=1e-9) for v in range(g.n))


def test_betweenness_unnormalized_star():
    # Star graph: the hub lies on every pair's unique shortest path.
    g = Graph.from_edges(5, [(0, i, 1.0) for i in range(1, 5)])
    bc = betweenness_centrality(g, normalized=False)
    assert bc[0] == pytest.approx(4 * 3 / 2)  # C(4,2) leaf pairs
    assert np.allclose(bc[1:], 0.0)


def test_betweenness_counts_equal_paths():
    # 4-cycle: two equal shortest paths between opposite corners split.
    g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    bc = betweenness_centrality(g, normalized=False)
    assert np.allclose(bc, 0.5)


def test_betweenness_rejects_negative():
    g = Graph.from_edges(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        betweenness_centrality(g)


def test_betweenness_rejects_digraph():
    from repro.graphs.digraph import DiGraph

    dg = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(TypeError):
        betweenness_centrality(dg)


def test_center_on_path_graph():
    g = Graph.from_edges(5, [(i, i + 1, 1.0) for i in range(4)])
    dist = superfw(g, seed=0).dist
    assert np.array_equal(center_vertices(dist), np.array([2]))


def test_disconnected_conventions():
    g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    dist = superfw(g, seed=0).dist
    ecc = eccentricity(dist)
    assert np.allclose(ecc, 1.0)  # furthest reachable
    assert diameter(dist) == 1.0
    h = harmonic_centrality(dist)
    assert np.allclose(h, 1.0)  # one reachable neighbor at distance 1
    c = closeness_centrality(dist)
    assert np.all(c < 1.0)  # component-size corrected


def _index_row(index, s: int) -> np.ndarray:
    return index.query_many(np.full(index.n, s), np.arange(index.n))


def test_treewidth_distances_from(mesh_and_dist):
    from repro.plan import APSPSession
    from repro.serve import HubLabelIndex

    g, dist = mesh_and_dist
    index = HubLabelIndex.build(APSPSession(g, seed=0))
    for s in (0, 13, g.n - 1):
        assert np.allclose(_index_row(index, s), dist[s])


def test_treewidth_distances_from_directed():
    from repro.graphs.digraph import DiGraph
    from repro.plan import APSPSession
    from repro.serve import HubLabelIndex

    rng = np.random.default_rng(4)
    arcs = [
        (int(u), int(v), float(rng.uniform(0.1, 2)))
        for u, v in rng.integers(0, 60, (220, 2))
        if u != v
    ]
    dg = DiGraph.from_edges(60, arcs)
    index = HubLabelIndex.build(APSPSession(dg, seed=0))
    ref = superfw(dg, seed=0).dist
    for s in (0, 30, 59):
        assert np.allclose(_index_row(index, s), ref[s])

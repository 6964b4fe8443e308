"""CSR Graph container."""

import numpy as np
import pytest

from repro.graphs.generators import barabasi_albert, delaunay_mesh, grid2d
from repro.graphs.graph import Graph


def small():
    return Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 4.0)])


def test_from_edges_basic():
    g = small()
    assert g.n == 4
    assert g.num_edges == 4
    assert g.nnz == 8
    assert g.density == 2.0


def test_edges_stored_both_directions():
    g = small()
    assert 1 in g.neighbors(0)
    assert 0 in g.neighbors(1)
    i = list(g.neighbors(1)).index(0)
    assert g.neighbor_weights(1)[i] == 1.0


def test_self_loops_dropped_by_from_edges():
    g = Graph.from_edges(3, [(0, 0, 1.0), (0, 1, 2.0)])
    assert g.num_edges == 1


def test_duplicate_edges_deduped_min():
    g = Graph.from_edges(3, [(0, 1, 5.0), (1, 0, 2.0), (0, 1, 3.0)])
    assert g.num_edges == 1
    assert g.neighbor_weights(0)[0] == 2.0


def test_duplicate_edges_sum_mode():
    g = Graph.from_edges(2, [(0, 1, 1.0), (0, 1, 2.5)], dedupe="sum")
    assert g.neighbor_weights(0)[0] == 3.5


def test_duplicate_edges_error_mode():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)], dedupe="error")


def test_out_of_range_endpoint():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2, 1.0)])


def test_asymmetric_csr_rejected():
    indptr = np.array([0, 1, 1])
    indices = np.array([1])
    weights = np.array([1.0])
    with pytest.raises(ValueError):
        Graph(indptr, indices, weights)


def test_self_loop_csr_rejected():
    indptr = np.array([0, 1])
    indices = np.array([0])
    with pytest.raises(ValueError):
        Graph(indptr, indices, np.array([1.0]))


def test_to_dense_dist():
    g = small()
    dist = g.to_dense_dist()
    assert np.all(np.diag(dist) == 0.0)
    assert dist[0, 1] == 1.0 and dist[1, 0] == 1.0
    assert np.isinf(dist[0, 2])


def test_from_dense_roundtrip():
    g = small()
    g2 = Graph.from_dense(g.to_dense_dist())
    assert np.array_equal(g.indptr, g2.indptr)
    assert np.array_equal(g.indices, g2.indices)
    assert np.allclose(g.weights, g2.weights)


def test_scipy_roundtrip():
    g = small()
    g2 = Graph.from_scipy(g.to_scipy())
    assert np.array_equal(g.indices, g2.indices)
    assert np.allclose(g.weights, g2.weights)


def test_permute_preserves_structure():
    g = small()
    perm = np.array([2, 0, 3, 1])
    gp = g.permute(perm)
    assert gp.num_edges == g.num_edges
    # Old edge (0,1,1.0): 0 -> position 1, 1 -> position 3.
    assert 3 in gp.neighbors(1)
    i = list(gp.neighbors(1)).index(3)
    assert gp.neighbor_weights(1)[i] == 1.0


def test_permute_roundtrip_dense():
    g = small()
    perm = np.array([3, 1, 0, 2])
    gp = g.permute(perm)
    dense = g.to_dense_dist()
    assert np.array_equal(gp.to_dense_dist(), dense[np.ix_(perm, perm)])


def test_subgraph_induced():
    g = small()
    sub = g.subgraph(np.array([0, 1, 3]))
    assert sub.n == 3
    # Edges (0,1) and (0,3) survive; (1,2), (2,3) die with vertex 2.
    assert sub.num_edges == 2


def edge_list_subgraph(g: Graph, vertices: np.ndarray) -> Graph:
    """The edge-list round trip ``Graph.subgraph`` replaced (the oracle)."""
    vertices = np.asarray(vertices, dtype=np.int64)
    local = np.full(g.n, -1, dtype=np.int64)
    local[vertices] = np.arange(vertices.shape[0])
    edges = g.edge_array()
    if edges.size:
        u = edges[:, 0].astype(np.int64)
        v = edges[:, 1].astype(np.int64)
        mask = (local[u] >= 0) & (local[v] >= 0)
        edges = np.column_stack([local[u[mask]], local[v[mask]], edges[mask, 2]])
    return Graph.from_edges(vertices.shape[0], edges)


def _same_csr(a: Graph, b: Graph) -> bool:
    return a.n == b.n and all(
        getattr(a, f).dtype == getattr(b, f).dtype
        and getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in ("indptr", "indices", "weights")
    )


def _weighted_mesh() -> Graph:
    rng = np.random.default_rng(5)
    edges = delaunay_mesh(90, seed=2).edge_array()
    edges[:, 2] = rng.integers(1, 50, edges.shape[0]) / 8.0
    return Graph.from_edges(90, edges)


#: name -> (graph builder, selection) for the byte-equality check.
SUBGRAPH_CASES = {
    "empty-selection": (small, []),
    "isolated-vertex": (small, [2]),
    # 0 and 2 share no edge: two components with no arc between them.
    "disconnected": (small, [0, 2]),
    "unsorted": (small, [3, 0, 1]),
    "all": (small, [0, 1, 2, 3]),
    "isolated-in-graph": (
        lambda: Graph.from_edges(5, [(0, 1, 2.5), (3, 4, 0.25)]), [4, 2, 0, 1]
    ),
    "weighted-mesh-half": (_weighted_mesh, list(range(0, 90, 2))),
    "weighted-mesh-shuffled": (
        _weighted_mesh, np.random.default_rng(1).permutation(90)[:60]
    ),
}


@pytest.mark.parametrize("name", sorted(SUBGRAPH_CASES))
def test_subgraph_equals_edge_list_round_trip(name):
    build, vertices = SUBGRAPH_CASES[name]
    g = build()
    vertices = np.asarray(vertices, dtype=np.int64)
    assert _same_csr(g.subgraph(vertices), edge_list_subgraph(g, vertices))


def test_subgraph_equals_edge_list_round_trip_on_random_selections():
    rng = np.random.default_rng(0)
    for g in (_weighted_mesh(), barabasi_albert(120, 3, seed=0)):
        for _ in range(40):
            vertices = rng.choice(g.n, size=int(rng.integers(0, g.n + 1)),
                                  replace=False)
            assert _same_csr(g.subgraph(vertices),
                             edge_list_subgraph(g, vertices))


def test_edge_array_canonical():
    edges = small().edge_array()
    assert edges.shape == (4, 3)
    assert np.all(edges[:, 0] < edges[:, 1])


def test_degree():
    g = small()
    assert g.degree(0) == 2
    assert np.array_equal(g.degree(), np.array([2, 2, 2, 2]))


def test_has_edge():
    g = small()
    assert g.has_edge(0, 1)
    assert not g.has_edge(0, 2)


def test_with_weights():
    g = small()
    g2 = g.with_weights(g.weights * 2)
    assert np.allclose(g2.weights, g.weights * 2)
    assert np.array_equal(g2.indices, g.indices)


def test_with_weights_must_stay_symmetric():
    g = small()
    bad = g.weights.copy()
    bad[0] += 1.0  # breaks the mirror arc
    with pytest.raises(ValueError):
        g.with_weights(bad)


def test_with_weights_shares_the_structure_and_keeps_the_allclose_rule():
    g = grid2d(4, 4, seed=0)
    w = g.weights.copy()
    w[0] += 1e-12  # within allclose of its mirror: accepted, as before
    g2 = g.with_weights(w)
    assert g2.indptr is g.indptr and g2.indices is g.indices
    assert g2.with_weights(g.weights).indices is g.indices
    w[0] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        g2.with_weights(w)
    with pytest.raises(ValueError):
        g.with_weights(g.weights[:-1])


def test_subgraph_with_weights_checks_its_mirror():
    g = grid2d(5, 5, seed=0)
    sub = g.subgraph(np.arange(12))
    assert np.array_equal(sub.with_weights(sub.weights * 2).weights, sub.weights * 2)
    bad = sub.weights.copy()
    bad[3] += 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        sub.with_weights(bad)


def test_adjacency_lists_match_csr():
    g = small()
    adj = g.adjacency_lists()
    for v in range(g.n):
        assert sorted(u for u, _ in adj[v]) == sorted(g.neighbors(v).tolist())


def test_min_weight():
    assert small().min_weight() == 0.5
    assert np.isinf(Graph.from_edges(3, []).min_weight())


def test_empty_graph():
    g = Graph.from_edges(5, [])
    assert g.n == 5 and g.num_edges == 0
    assert np.all(np.isinf(g.to_dense_dist()[~np.eye(5, dtype=bool)]))

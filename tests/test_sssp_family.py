"""Dijkstra (CSR + adjacency-list), Bellman-Ford, Johnson, Δ-stepping."""

import numpy as np
import pytest

from repro.core.bellman_ford import sssp_bellman_ford
from repro.core.delta_stepping import (
    apsp_delta_stepping,
    autotune_delta,
    sssp_delta_stepping,
)
from repro.core.dijkstra import (
    apsp_dijkstra,
    apsp_dijkstra_adjlist,
    sssp_dijkstra,
)
from repro.core.johnson import johnson_apsp
from repro.graphs.graph import Graph

from conftest import scipy_apsp


# ----------------------------------------------------------------------
# Dijkstra
# ----------------------------------------------------------------------
def test_sssp_matches_oracle_rows(mesh_graph):
    oracle = scipy_apsp(mesh_graph)
    for s in (0, 5, mesh_graph.n - 1):
        assert np.allclose(sssp_dijkstra(mesh_graph, s), oracle[s])


def test_apsp_dijkstra(any_graph):
    assert np.allclose(apsp_dijkstra(any_graph).dist, scipy_apsp(any_graph))


def test_apsp_dijkstra_adjlist(grid_graph):
    a = apsp_dijkstra(grid_graph).dist
    b = apsp_dijkstra_adjlist(grid_graph).dist
    assert np.array_equal(a, b)


def test_dijkstra_rejects_negative_weights():
    g = Graph.from_edges(3, [(0, 1, -0.5), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        apsp_dijkstra(g)
    with pytest.raises(ValueError):
        apsp_dijkstra_adjlist(g)


def test_sssp_out_buffer_reused(grid_graph):
    buf = np.empty(grid_graph.n)
    got = sssp_dijkstra(grid_graph, 0, out=buf)
    assert got is buf
    again = sssp_dijkstra(grid_graph, 1, out=buf)
    assert again is buf and buf[1] == 0.0


def test_dijkstra_disconnected():
    g = Graph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
    dist = sssp_dijkstra(g, 0)
    assert np.isinf(dist[2]) and dist[1] == 1.0


# ----------------------------------------------------------------------
# Bellman-Ford
# ----------------------------------------------------------------------
def test_bellman_matches_dijkstra(mesh_graph):
    for s in (0, 7):
        assert np.allclose(
            sssp_bellman_ford(mesh_graph, s), sssp_dijkstra(mesh_graph, s)
        )


def test_bellman_virtual_source_is_zero_on_positive_graphs(grid_graph):
    assert np.allclose(sssp_bellman_ford(grid_graph, None), 0.0)


def test_bellman_detects_negative_cycle():
    g = Graph.from_edges(3, [(0, 1, -1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        sssp_bellman_ford(g, 0)


def test_bellman_empty_graph():
    g = Graph.from_edges(3, [])
    dist = sssp_bellman_ford(g, 0)
    assert dist[0] == 0 and np.isinf(dist[1])


# ----------------------------------------------------------------------
# Johnson
# ----------------------------------------------------------------------
def test_johnson_matches_oracle(any_graph):
    assert np.allclose(johnson_apsp(any_graph).dist, scipy_apsp(any_graph))


def test_johnson_reports_potentials(grid_graph):
    r = johnson_apsp(grid_graph)
    assert np.allclose(r.meta["potentials"], 0.0)  # positive graph


def test_johnson_negative_cycle_raises():
    g = Graph.from_edges(3, [(0, 1, -1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        johnson_apsp(g)


# ----------------------------------------------------------------------
# Δ-stepping
# ----------------------------------------------------------------------
@pytest.mark.parametrize("delta", [0.05, 0.5, 5.0])
def test_delta_sssp_any_delta_is_correct(mesh_graph, delta):
    oracle = scipy_apsp(mesh_graph)
    dist, rounds = sssp_delta_stepping(mesh_graph, 0, delta)
    assert np.allclose(dist, oracle[0])
    assert rounds >= 1


def test_delta_rounds_decrease_with_larger_delta(mesh_graph):
    _, many = sssp_delta_stepping(mesh_graph, 0, 0.02)
    _, few = sssp_delta_stepping(mesh_graph, 0, 50.0)
    assert few <= many


def test_delta_apsp_matches_oracle(grid_graph):
    r = apsp_delta_stepping(grid_graph)
    assert np.allclose(r.dist, scipy_apsp(grid_graph))
    assert r.meta["delta"] > 0
    assert r.meta["rounds"] > 0


def test_delta_explicit_parameter_skips_autotune(grid_graph):
    r = apsp_delta_stepping(grid_graph, delta=1.0)
    assert r.meta["delta"] == 1.0
    assert "autotune" not in r.timings


def test_delta_invalid():
    g = Graph.from_edges(2, [(0, 1, 1.0)])
    with pytest.raises(ValueError):
        sssp_delta_stepping(g, 0, 0.0)


def test_autotune_returns_candidate(grid_graph):
    delta = autotune_delta(grid_graph, candidates=[0.3, 0.9], sources=2)
    assert delta in (0.3, 0.9)


def test_delta_rejects_negative_weights():
    g = Graph.from_edges(3, [(0, 1, -0.5), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        apsp_delta_stepping(g)

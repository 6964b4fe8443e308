"""Blocked Floyd-Warshall (Algorithm 2)."""

import numpy as np
import pytest

from repro.core.blocked_fw import blocked_floyd_warshall
from repro.core.dense_fw import floyd_warshall
from repro.graphs.graph import Graph

from conftest import scipy_apsp


@pytest.mark.parametrize("block_size", [1, 3, 7, 16, 100, 1000])
def test_any_block_size_matches_dense(grid_graph, block_size):
    """Blocking is a pure schedule change — results must be identical."""
    blocked = blocked_floyd_warshall(grid_graph, block_size=block_size)
    dense = floyd_warshall(grid_graph)
    assert np.allclose(blocked.dist, dense.dist)


def test_matches_oracle(any_graph):
    r = blocked_floyd_warshall(any_graph, block_size=24)
    assert np.allclose(r.dist, scipy_apsp(any_graph))


def test_op_count_is_cubic(grid_graph):
    n = grid_graph.n
    r = blocked_floyd_warshall(grid_graph, block_size=25)
    # Every (i,j,k) triple is touched exactly once: 2n^3 scalar ops.
    assert r.ops.total == 2 * n**3


def test_op_categories_cover_all_steps(grid_graph):
    r = blocked_floyd_warshall(grid_graph, block_size=20)
    assert set(r.ops.counts) == {"diag", "panel", "outer"}
    assert r.ops.counts["outer"] > r.ops.counts["panel"] > 0


def test_invalid_block_size(grid_graph):
    with pytest.raises(ValueError):
        blocked_floyd_warshall(grid_graph, block_size=0)


def test_negative_cycle_detected():
    g = Graph.from_edges(3, [(0, 1, -2.0), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        blocked_floyd_warshall(g, block_size=2)


def test_block_size_larger_than_matrix_degenerates_to_dense(grid_graph):
    r = blocked_floyd_warshall(grid_graph, block_size=10 * grid_graph.n)
    assert np.allclose(r.dist, floyd_warshall(grid_graph).dist)
    assert r.ops.counts.get("panel", 0) == 0  # single block: only diag


def test_meta_records_block_size(grid_graph):
    assert blocked_floyd_warshall(grid_graph, block_size=13).meta["block_size"] == 13


def _block_pair_fw(dist, bounds):
    """The pivot step one block pair at a time: the per-pair schedule."""
    from repro.obs.metrics import OpCounter
    from repro.semiring.kernels import (
        diag_update, outer_update, panel_update_cols, panel_update_rows,
    )

    counter = OpCounter()
    nb = len(bounds) - 1
    for k in range(nb):
        k0, k1 = bounds[k], bounds[k + 1]
        diag = dist[k0:k1, k0:k1]
        counter.add("diag", diag_update(diag))
        others = [(bounds[j], bounds[j + 1]) for j in range(nb) if j != k]
        for j0, j1 in others:
            counter.add("panel", panel_update_rows(dist[k0:k1, j0:j1], diag))
            counter.add("panel", panel_update_cols(dist[j0:j1, k0:k1], diag))
        for i0, i1 in others:
            for j0, j1 in others:
                counter.add("outer", outer_update(
                    dist[i0:i1, j0:j1], dist[i0:i1, k0:k1], dist[k0:k1, j0:j1]
                ))
    return counter


@pytest.mark.parametrize("block_size", [2, 5, 16, 40])
def test_pivot_slices_match_the_block_pair_schedule(block_size):
    """Panels as two slices and the trailing update as four quadrants:
    bit-identical on dyadic weights, same op counts, few GEMMs per pivot."""
    from repro.core.incremental import quantize_weights
    from repro.graphs.generators import delaunay_mesh
    from repro.plan.plan import make_tiling
    from repro.semiring.engine import get_engine

    graph = quantize_weights(delaunay_mesh(60, seed=2))
    tiling = make_tiling(graph.n, block_size)
    engine = get_engine()
    before = engine.stats_snapshot()["calls"]
    r = blocked_floyd_warshall(graph, block_size=block_size)
    calls = engine.stats_snapshot()["calls"] - before
    reference = graph.to_dense_dist()
    counter = _block_pair_fw(reference, list(tiling.bounds))
    assert r.dist.tobytes() == reference.tobytes()
    assert r.ops.counts == counter.counts
    # Per pivot: a row and a column panel per side, and one GEMM per
    # quadrant; the first and last pivots have one side and one quadrant.
    assert tiling.nb >= 2
    assert calls == 8 * (tiling.nb - 2) + 2 * 3

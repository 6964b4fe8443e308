"""Table 2 analytic models and measured work/depth."""

import numpy as np
import pytest

from repro.core.superfw import superfw

from repro.plan import analyze
from repro.graphs.generators import grid2d
from repro.ordering.nested_dissection import nested_dissection
from repro.parallel.workdepth import (
    TABLE2_MODELS,
    concurrency,
    superfw_measured_depth,
    superfw_measured_work,
)


MODELS = {m.name: m for m in TABLE2_MODELS}


def test_table2_has_four_rows():
    assert set(MODELS) == {"BlockedFw", "SuperFw", "Dijkstra", "PathDoubling"}


def test_blockedfw_row():
    m = MODELS["BlockedFw"]
    assert m.work(100, 0, 0) == 1e6
    assert m.depth(100, 0, 0) == 100
    assert m.concurrency(100, 0, 0) == 1e4


def test_superfw_work_below_blockedfw_when_separator_small():
    n, s = 10_000, 100
    assert MODELS["SuperFw"].work(n, 0, s) < MODELS["BlockedFw"].work(n, 0, s)


def test_superfw_equals_blockedfw_for_full_separator():
    n = 1000
    assert MODELS["SuperFw"].work(n, 0, n) == MODELS["BlockedFw"].work(n, 0, n)


def test_dijkstra_work_optimal_on_sparse():
    n, m = 10_000, 40_000
    s = int(np.sqrt(n))
    assert MODELS["Dijkstra"].work(n, m, s) < MODELS["SuperFw"].work(n, m, s)


def test_dijkstra_low_concurrency():
    """Table 2: Dijkstra offers only O(n) concurrency, SuperFW O(n^2/log^2 n)."""
    n, m = 4096, 16384
    s = 64
    c_dij = MODELS["Dijkstra"].concurrency(n, m, s)
    c_fw = MODELS["SuperFw"].concurrency(n, m, s)
    assert c_fw > 10 * c_dij


def test_pathdoubling_log_depth():
    assert MODELS["PathDoubling"].depth(1 << 20, 0, 0) == 20


def test_concurrency_helper():
    assert concurrency(100.0, 4.0) == 25.0
    assert concurrency(5.0, 0.0) == 5.0


def test_measured_work_matches_runtime(grid_graph):
    plan = analyze(grid_graph, seed=0)
    result = superfw(grid_graph, plan=plan)
    assert superfw_measured_work(plan.structure) == pytest.approx(result.ops.total)


def test_measured_work_tracks_n2s_model():
    """Measured ops within a constant factor of n^2 |S| across sizes."""
    ratios = []
    for side in (10, 16, 22):
        g = grid2d(side, side, seed=0)
        nd = nested_dissection(g, seed=0)
        plan = analyze(g, ordering=nd.ordering)
        model = g.n**2 * max(nd.top_separator_size, 1)
        ratios.append(superfw_measured_work(plan.structure) / model)
    assert max(ratios) / min(ratios) < 6.0  # bounded coefficient


def test_measured_depth_below_sequential_depth(grid_graph):
    """Etree depth must beat the n-step sequential pivot chain (scaled)."""
    plan = analyze(grid_graph, seed=0)
    depth = superfw_measured_depth(plan.structure)
    sequential = sum(
        3 * plan.structure.snode_size(s) for s in range(plan.structure.ns)
    )
    assert depth < sequential


def test_measured_depth_at_least_root_chain(grid_graph):
    plan = analyze(grid_graph, seed=0)
    st = plan.structure
    root = int(np.argmax(st.levels))
    assert superfw_measured_depth(st) >= 3 * st.snode_size(root)

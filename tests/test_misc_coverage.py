"""Edge-case coverage across the library surface."""

import numpy as np
import pytest

from repro.core.parallel_superfw import parallel_superfw
from repro.graphs.graph import Graph
from repro.semiring import BOOLEAN, MIN_PLUS
from repro.semiring.minplus import semiring_gemm


def test_parallel_superfw_rejects_non_tropical(grid_graph):
    # The sweep is min-plus only; it has no semiring parameter to pass.
    with pytest.raises(TypeError, match="semiring"):
        parallel_superfw(grid_graph, semiring=BOOLEAN)


def test_semiring_gemm_accumulate_generic():
    a = np.array([[1.0, 0.0], [1.0, 1.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = np.zeros((2, 2))
    out[0, 0] = 1.0  # pre-existing reachability must survive ⊕
    semiring_gemm(BOOLEAN, a, b, out=out, accumulate=True)
    assert out[0, 0] == 1.0
    assert out[0, 1] == 1.0  # a[0,0] & b[0,1]


def test_semiring_gemm_shape_error_generic():
    with pytest.raises(ValueError):
        semiring_gemm(BOOLEAN, np.zeros((2, 3)), np.zeros((2, 3)))


def test_minplus_is_singleton_used_for_dispatch():
    # The fast path dispatches on identity, not equality.
    assert MIN_PLUS is MIN_PLUS


def test_fig6b_delta_included_smoke():
    from repro.experiments.fig6 import run_fig6b

    rows = run_fig6b(
        size_factor=0.08, names=["t60k"], include_delta=True, verbose=False
    )
    assert "deltastep_x" in rows[0]
    assert rows[0]["deltastep_x"] > 0


def test_apsp_result_solve_seconds_fallback():
    from repro.core.result import APSPResult

    r = APSPResult(dist=np.zeros((1, 1)), method="x", timings={"everything": 2.0})
    assert r.solve_seconds() == 2.0  # falls back to total without "solve"
    assert r.n == 1


def test_graph_density_empty():
    assert Graph.from_edges(0, []).density == 0.0


def test_path_oracle_atol_respected(grid_graph):
    from repro.core.paths import PathOracle
    from repro.core.superfw import superfw

    dist = superfw(grid_graph, seed=0).dist.copy()
    # Perturb within a generous tolerance: successor search still works.
    dist += 1e-12
    np.fill_diagonal(dist, 0.0)
    oracle = PathOracle(grid_graph, dist, atol=1e-6)
    path = oracle.path(0, grid_graph.n - 1)
    assert path[0] == 0 and path[-1] == grid_graph.n - 1


def test_suite_entry_repr_fields():
    from repro.graphs.suite import get_entry

    e = get_entry("wing")
    assert e.category == "DIMACS10"
    assert e.base_n > 0


def test_custom_ordering_method_preserved():
    from repro.plan import analyze
    from repro.graphs.generators import delaunay_mesh
    from repro.ordering.base import Ordering

    g = delaunay_mesh(60, seed=0)
    rng = np.random.default_rng(0)
    plan = analyze(g, ordering=Ordering(perm=rng.permutation(g.n), method="random"))
    assert plan.ordering.method == "random"
    assert plan.structure.n == g.n


def test_timing_breakdown_nested_phases():
    from repro.obs import phase

    timings: dict[str, float] = {}
    with phase(timings, "outer"):
        with phase(timings, "outer"):
            pass
    assert timings["outer"] > 0


def test_digraph_density_and_repr():
    from repro.graphs.digraph import DiGraph

    dg = DiGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    assert dg.density == pytest.approx(0.75)
    assert "DiGraph" in repr(dg)

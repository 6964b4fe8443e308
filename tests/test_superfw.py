"""SuperFW (Algorithm 3): correctness, planning, structure exploitation."""

import dataclasses

import numpy as np
import pytest

from repro.core.dense_fw import floyd_warshall
from repro.core.incremental import quantize_weights
from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import eliminate_supernode, superfw
from repro.plan import analyze
from repro.graphs.generators import barabasi_albert, delaunay_mesh, grid2d
from repro.graphs.graph import Graph
from repro.symbolic.fill import symbolic_cholesky
from repro.symbolic.structure import supernodal_analysis

from conftest import scipy_apsp


def test_matches_oracle_every_graph_class(any_graph):
    assert np.allclose(superfw(any_graph, seed=0).dist, scipy_apsp(any_graph))


@pytest.mark.parametrize("ordering", ["nd", "bfs", "natural"])
def test_every_ordering_is_correct(mesh_graph, ordering):
    r = superfw(mesh_graph, ordering=ordering, seed=0)
    assert np.allclose(r.dist, scipy_apsp(mesh_graph))


def test_plan_reuse(mesh_graph):
    plan = analyze(mesh_graph, seed=0)
    a = superfw(mesh_graph, plan=plan)
    b = superfw(mesh_graph, plan=plan)
    assert np.allclose(a.dist, b.dist)
    assert a.meta["plan"] is plan


def test_plan_for_wrong_graph_rejected(mesh_graph, grid_graph):
    plan = analyze(grid_graph, seed=0)
    with pytest.raises(ValueError):
        superfw(mesh_graph, plan=plan)


def test_plan_unknown_ordering(grid_graph):
    with pytest.raises(ValueError):
        analyze(grid_graph, ordering="sorted-by-vibes")


def test_plan_accepts_prebuilt_ordering(grid_graph):
    from repro.ordering.bfs import rcm_ordering

    plan = analyze(grid_graph, ordering=rcm_ordering(grid_graph))
    r = superfw(grid_graph, plan=plan)
    assert np.allclose(r.dist, scipy_apsp(grid_graph))
    assert r.method == "superfw-rcm"


def test_ops_below_dense_on_meshes():
    g = grid2d(14, 14, seed=0)
    sup = superfw(g, seed=0)
    dense = floyd_warshall(g)
    assert sup.ops.total < 0.5 * dense.ops.total


def test_ops_accounting_by_phase(mesh_graph):
    r = superfw(mesh_graph, seed=0)
    assert set(r.ops.counts) == {"diag", "panel", "outer"}
    assert r.ops.counts["outer"] > 0


def test_op_advantage_grows_with_n():
    """The asymptotic claim: savings over dense FW grow with n on meshes."""
    ratios = []
    for side in (8, 16):
        g = grid2d(side, side, seed=0)
        ratio = floyd_warshall(g).ops.total / superfw(g, seed=0).ops.total
        ratios.append(ratio)
    assert ratios[1] > ratios[0]


def test_negative_cycle_detected():
    g = Graph.from_edges(3, [(0, 1, -1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        superfw(g, seed=0)


def test_disconnected_graph():
    g = Graph.from_edges(
        6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (4, 5, 2.0)]
    )
    r = superfw(g, seed=0)
    assert np.isinf(r.dist[0, 3])
    assert np.allclose(r.dist, scipy_apsp(g))


def test_timings_include_all_phases(mesh_graph):
    r = superfw(mesh_graph, seed=0)
    for phase in ("ordering", "symbolic", "permute", "solve"):
        assert phase in r.timings


def test_preplanned_solve_excludes_preprocessing(mesh_graph):
    plan = analyze(mesh_graph, seed=0)
    assert plan.preprocessing_seconds() > 0
    assert "top_separator" in plan.describe()


def test_eliminate_supernode_zero_is_noop_on_distances_outside_sets(mesh_graph):
    """Eliminating s must not touch rows/cols outside A(s) ∪ D(s) ∪ s."""
    plan = analyze(mesh_graph, seed=0)
    st = plan.structure
    perm = plan.ordering.perm
    dist = mesh_graph.to_dense_dist()[np.ix_(perm, perm)]
    snapshot = dist.copy()
    s = 0  # a leaf supernode
    eliminate_supernode(dist, st, s)
    lo, hi = st.col_range(s)
    touched = np.concatenate(
        [
            np.arange(lo, hi),
            st.descendant_vertices(s),
            st.ancestor_vertices(s),
        ]
    )
    untouched = np.setdiff1d(np.arange(st.n), touched)
    assert np.array_equal(
        dist[np.ix_(untouched, untouched)], snapshot[np.ix_(untouched, untouched)]
    )


def test_superfw_on_expander_still_correct():
    g = barabasi_albert(150, 8, seed=1)
    assert np.allclose(superfw(g, seed=0).dist, scipy_apsp(g))


def test_relaxation_settings_preserve_correctness(mesh_graph):
    # The cost-law blocks and the merge-free fundamental supernodes of
    # one ordering solve to the same bits on dyadic weights, on every
    # executor.
    g = quantize_weights(mesh_graph)
    plan = analyze(g, seed=0)
    sym = symbolic_cholesky(plan.pattern, plan.ordering.perm)
    structure, rows = supernodal_analysis(sym)
    assert structure.ns > plan.structure.ns
    merge_free = dataclasses.replace(plan, structure=structure, snode_rows=rows)
    expected = superfw(g, plan=merge_free).dist
    assert np.allclose(expected, scipy_apsp(g))
    assert np.array_equal(superfw(g, plan=plan).dist, expected)
    for backend in ("thread", "process"):
        r = parallel_superfw(g, plan=plan, backend=backend, num_workers=2)
        assert np.array_equal(r.dist, expected)

"""Multifrontal min-plus factorization: schedule equivalence (§6)."""

import numpy as np
import pytest

from repro.core.multifrontal import multifrontal_dpc, plan_struct_rows
from repro.plan import analyze
from repro.core.treewidth import dpc_right_looking, p3c_descending
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import barabasi_albert, delaunay_mesh, grid2d
from repro.symbolic.fill import symbolic_cholesky

from conftest import scipy_apsp


def _right_looking_reference(graph, plan):
    pattern = plan.pattern if plan.pattern is not None else graph
    w = graph.to_dense_dist()[np.ix_(plan.ordering.perm, plan.ordering.perm)]
    sym = symbolic_cholesky(pattern, plan.ordering.perm)
    dpc_right_looking(w, sym.col_struct)
    return w, sym


@pytest.mark.parametrize(
    "builder",
    [
        lambda: grid2d(9, 9, seed=0),
        lambda: delaunay_mesh(150, seed=1),
        lambda: barabasi_albert(80, 4, seed=2),
    ],
    ids=["grid", "delaunay", "ba"],
)
def test_schedules_produce_identical_factor(builder):
    """Multifrontal and right-looking DPC agree bit-for-bit on the fill."""
    graph = builder()
    plan = analyze(graph, seed=0)
    w_mf, _ = multifrontal_dpc(graph, plan=plan)
    w_rl, sym = _right_looking_reference(graph, plan)
    for k in range(graph.n):
        s = sym.col_struct[k]
        assert np.array_equal(w_mf[s, k], w_rl[s, k])
        assert np.array_equal(w_mf[k, s], w_rl[k, s])


def test_directed_schedule_equivalence():
    rng = np.random.default_rng(0)
    arcs = [
        (int(u), int(v), float(rng.uniform(0.1, 2)))
        for u, v in rng.integers(0, 60, (220, 2))
        if u != v
    ]
    dg = DiGraph.from_edges(60, arcs)
    plan = analyze(dg, seed=0)
    w_mf, _ = multifrontal_dpc(dg, plan=plan)
    w_rl, sym = _right_looking_reference(dg, plan)
    for k in range(dg.n):
        s = sym.col_struct[k]
        assert np.array_equal(w_mf[s, k], w_rl[s, k])
        assert np.array_equal(w_mf[k, s], w_rl[k, s])


def test_multifrontal_composes_with_p3c(mesh_graph):
    """Multifrontal phase 1 + P3C phase 2 => exact filled-edge distances."""
    plan = analyze(mesh_graph, seed=0)
    w, _ = multifrontal_dpc(mesh_graph, plan=plan)
    pattern = plan.pattern if plan.pattern is not None else mesh_graph
    sym = symbolic_cholesky(pattern, plan.ordering.perm)
    p3c_descending(w, sym.col_struct)
    perm = plan.ordering.perm
    truth = scipy_apsp(mesh_graph)[np.ix_(perm, perm)]
    for k in range(mesh_graph.n):
        s = sym.col_struct[k]
        assert np.allclose(w[s, k], truth[s, k])
        assert np.allclose(w[k, s], truth[k, s])


def test_negative_cycle_detected():
    dg = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, -5.0)])
    with pytest.raises(ValueError):
        multifrontal_dpc(dg, seed=0)


def test_plan_mismatch_rejected(mesh_graph, grid_graph):
    plan = analyze(grid_graph, seed=0)
    with pytest.raises(ValueError):
        multifrontal_dpc(mesh_graph, plan=plan)


def test_ops_counted(mesh_graph):
    from repro.obs.metrics import OpCounter

    counter = OpCounter()
    multifrontal_dpc(mesh_graph, seed=0, counter=counter)
    assert counter.counts["eliminate"] > 0


def test_struct_rows_nested_under_parent(mesh_graph):
    """The assembly-tree invariant: child fill rows live in parent fronts."""
    plan = analyze(mesh_graph, seed=0)
    rows = plan_struct_rows(plan)
    st = plan.structure
    for s in range(st.ns):
        p = st.parent[s]
        if p < 0:
            continue
        lo, hi = st.col_range(p)
        parent_front = set(range(lo, hi)) | set(rows[p].tolist())
        assert set(rows[s].tolist()) <= parent_front


@pytest.mark.parametrize(
    "builder",
    [
        lambda: grid2d(9, 9, seed=0),
        lambda: delaunay_mesh(150, seed=1),
        lambda: barabasi_albert(80, 4, seed=2),
    ],
    ids=["grid", "delaunay", "ba"],
)
def test_left_looking_completes_the_trio(builder):
    """§6's three schedules — right-looking, left-looking, multifrontal —
    produce the identical factor."""
    from repro.core.treewidth import dpc_left_looking

    graph = builder()
    plan = analyze(graph, seed=0)
    pattern = plan.pattern if plan.pattern is not None else graph
    perm = plan.ordering.perm
    sym = symbolic_cholesky(pattern, perm)
    w_rl = graph.to_dense_dist()[np.ix_(perm, perm)]
    w_ll = w_rl.copy()
    dpc_right_looking(w_rl, sym.col_struct)
    dpc_left_looking(w_ll, sym.col_struct)
    w_mf, _ = multifrontal_dpc(graph, plan=plan)
    for k in range(graph.n):
        s = sym.col_struct[k]
        assert np.array_equal(w_rl[s, k], w_ll[s, k])
        assert np.array_equal(w_rl[k, s], w_ll[k, s])
        assert np.array_equal(w_rl[s, k], w_mf[s, k])


def test_left_looking_directed():
    from repro.core.treewidth import dpc_left_looking

    rng = np.random.default_rng(1)
    arcs = [
        (int(u), int(v), float(rng.uniform(0.1, 2)))
        for u, v in rng.integers(0, 50, (200, 2))
        if u != v
    ]
    dg = DiGraph.from_edges(50, arcs)
    plan = analyze(dg, seed=0)
    perm = plan.ordering.perm
    sym = symbolic_cholesky(plan.pattern, perm)
    w_rl = dg.to_dense_dist()[np.ix_(perm, perm)]
    w_ll = w_rl.copy()
    dpc_right_looking(w_rl, sym.col_struct)
    dpc_left_looking(w_ll, sym.col_struct)
    for k in range(dg.n):
        s = sym.col_struct[k]
        assert np.array_equal(w_rl[s, k], w_ll[s, k])
        assert np.array_equal(w_rl[k, s], w_ll[k, s])


def test_update_matrices_fully_consumed(mesh_graph):
    """Every non-root child's Schur complement is absorbed exactly once
    (the pending dict drains) — indirectly covered by equality, asserted
    here via a fresh run completing without leftover state."""
    w, plan = multifrontal_dpc(mesh_graph, seed=0)
    assert w.shape == (mesh_graph.n, mesh_graph.n)
    assert plan.structure.ns > 1

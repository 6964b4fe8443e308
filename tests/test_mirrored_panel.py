"""Mirrored PanelUpdate: a symmetric solve runs one panel GEMM per supernode.

When the permuted start matrix is symmetric bit for bit, the sweep keeps
it symmetric, so :func:`~repro.core.superfw.eliminate_supernode` takes
each row panel as the closed column panel's transpose.  These tests pin
that the mirror changes no bit, that anything short of exact symmetry
keeps the two-panel path, and that the saving is exactly one GEMM per
supernode with panels on every executor, plus the mirrored ``A×D``
product on the parallel ones.
"""

import numpy as np
import pytest

from repro.core.dense_fw import floyd_warshall
from repro.core.incremental import quantize_weights
from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import _start_matrix, eliminate_supernode, superfw
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import delaunay_mesh
from repro.graphs.graph import Graph
from repro.plan import analyze
from repro.resilience.errors import NegativeCycleError
from repro.symbolic.structure import superfw_snode_ops
from repro.util.perm import invert_permutation

from conftest import GRAPH_BUILDERS

SOLVERS = {
    "sequential": superfw,
    "thread": lambda g, **kw: parallel_superfw(g, num_workers=2, **kw),
    "process": lambda g, **kw: parallel_superfw(
        g, backend="process", num_workers=2, **kw
    ),
}


@pytest.fixture(scope="module")
def mesh():
    return quantize_weights(delaunay_mesh(160, seed=3))


def _nudged(graph: Graph) -> Graph:
    """``graph`` with one arc 2⁻³⁰ heavier than its reverse: allclose only."""
    w = graph.weights.copy()
    w[0] += 2.0**-30
    nudged = graph.with_weights(w)
    dense = nudged.to_dense_dist()
    assert np.allclose(dense, dense.T) and not np.array_equal(dense, dense.T)
    return nudged


def _symmetric(dist: np.ndarray, tile: int = 128) -> bool:
    """Dense oracle of the mirror decision: ``dist`` equals its transpose.

    Compares the upper triangle against the lower in strips of ``tile``
    rows.
    """
    n = dist.shape[0]
    for i0 in range(0, n, tile):
        i1 = min(i0 + tile, n)
        if not np.array_equal(dist[i0:i1, i0:], dist[i0:, i0:i1].T):
            return False
    return True


def _digraph(graph: Graph) -> DiGraph:
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    return DiGraph.from_edges(
        graph.n, np.column_stack([rows, graph.indices, graph.weights])
    )


def _two_panel_sweep(graph, plan) -> tuple[np.ndarray, np.ndarray]:
    """The sequential sweep with both PanelUpdates, in the permuted order."""
    perm = plan.ordering.perm
    dist = graph.to_dense_dist()[np.ix_(perm, perm)]
    for s in range(plan.structure.ns):
        eliminate_supernode(dist, plan.structure, s)
    return dist, perm


def _calls(result) -> int:
    return sum(v["calls"] for v in result.meta["engine"]["strategies"].values())


def _panel_snodes(plan) -> int:
    st = plan.structure
    return sum(
        1 for s in range(st.ns) if st.row_runs(s).nd + st.row_runs(s).na
    )


def test_mirror_matches_the_two_panel_sweep_bit_for_bit():
    # Generator weights, not dyadic: the mirror is an exact transpose of
    # what the row PanelUpdate computes, not merely equal up to rounding.
    g = delaunay_mesh(160, seed=3)
    plan = analyze(g, seed=0)
    two, perm = _two_panel_sweep(g, plan)
    iperm = np.argsort(perm)
    assert np.array_equal(superfw(g, plan=plan).dist, two[np.ix_(iperm, iperm)])


def test_allclose_only_graph_keeps_the_two_panel_path(mesh):
    plan = analyze(mesh, seed=0)
    asym = _nudged(mesh)
    r = superfw(asym, plan=plan)
    two, perm = _two_panel_sweep(asym, plan)
    iperm = np.argsort(perm)
    assert np.array_equal(r.dist, two[np.ix_(iperm, iperm)])
    # The nudge is dyadic, so every sum is exact and dense FW agrees.
    assert np.array_equal(r.dist, floyd_warshall(asym).dist)
    assert _calls(r) == _calls(superfw(mesh, plan=plan)) + _panel_snodes(plan)


def test_symmetric_digraph_equals_its_graph(mesh):
    rows = np.repeat(np.arange(mesh.n), np.diff(mesh.indptr))
    dg = DiGraph.from_edges(
        mesh.n, np.column_stack([rows, mesh.indices, mesh.weights])
    )
    plan = analyze(dg, seed=0)
    r = superfw(dg, plan=plan)
    assert np.array_equal(r.dist, superfw(mesh, seed=0).dist)
    w = dg.weights.copy()
    w[0] += 2.0**-30
    asym = superfw(dg.with_weights(w), plan=plan)
    assert _calls(asym) - _calls(r) == _panel_snodes(plan) > 0


def _reweighted(graph: DiGraph) -> DiGraph:
    rng = np.random.default_rng(1)
    return graph.with_weights(rng.uniform(0.1, 1.0, graph.weights.size))


START_KINDS = {
    **GRAPH_BUILDERS,
    "nudged": lambda: _nudged(quantize_weights(delaunay_mesh(160, seed=3))),
    "symmetric-digraph": lambda: _digraph(GRAPH_BUILDERS["ba"]()),
    "asymmetric-digraph": lambda: _reweighted(_digraph(GRAPH_BUILDERS["ba"]())),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", sorted(START_KINDS))
def test_start_matrix_and_mirror_decision_match_the_dense_oracle(kind, dtype):
    g = START_KINDS[kind]()
    perm = np.random.default_rng(0).permutation(g.n)
    dense = g.to_dense_dist(dtype=dtype)[np.ix_(perm, perm)]
    dist, mirror = _start_matrix(g, invert_permutation(perm), dtype)
    assert dist.dtype == dense.dtype and np.array_equal(dist, dense)
    assert mirror == _symmetric(dense)
    if dtype is np.float64:
        assert mirror == (kind not in ("nudged", "asymmetric-digraph"))


@pytest.mark.parametrize("executor", sorted(SOLVERS))
def test_undirected_negative_edge_keeps_its_witness(mesh, executor):
    w = mesh.weights.copy()
    rows = np.repeat(np.arange(mesh.n), np.diff(mesh.indptr))
    u, v = 40, int(mesh.indices[mesh.indptr[40]])
    w[(rows == u) & (mesh.indices == v)] = -0.25
    w[(rows == v) & (mesh.indices == u)] = -0.25
    g = mesh.with_weights(w)
    plan = analyze(g, seed=0)
    two, perm = _two_panel_sweep(g, plan)
    expected = int(perm[int(np.argmin(np.diag(two)))])
    with pytest.raises(NegativeCycleError) as raised:
        SOLVERS[executor](g, plan=plan)
    assert raised.value.witness == expected


def _split_snodes(plan) -> int:
    """Supernodes whose deferred outer update has both D×A and A×D."""
    st = plan.structure
    return sum(1 for s in range(st.ns) if st.row_runs(s).nd and st.row_runs(s).na)


@pytest.mark.parametrize("executor", sorted(SOLVERS))
def test_one_gemm_fewer_per_supernode_with_panels(mesh, executor):
    plan = analyze(mesh, seed=0)
    solve = SOLVERS[executor]
    sym = solve(mesh, plan=plan)
    asym = solve(_nudged(mesh), plan=plan)
    # The parallel executors also take a mirrored A×D as the transpose
    # of D×A, one product fewer per supernode with both regions.
    split = 0 if executor == "sequential" else _split_snodes(plan)
    assert _calls(asym) - _calls(sym) == _panel_snodes(plan) + split
    assert _panel_snodes(plan) > 0 and (executor == "sequential" or split > 0)
    # The op counter still charges the mirrored panel at the law's cost.
    law = int(superfw_snode_ops(plan.structure).sum())
    assert sym.ops.total == asym.ops.total == law
    assert np.array_equal(sym.dist, superfw(mesh, plan=plan).dist)

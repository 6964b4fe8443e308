"""Mirrored outer update: symmetric solves compute each outer region once.

When the sweep is mirrored (the start matrix is symmetric bit for bit),
every diagonal outer-update region — the sequential ``rows × rows``
block, a leaf group's fused ``A×A``, and the parallel ``D×D`` and
deferred ``A×A`` — runs the engine's symmetric mode, a staircase of row
strips on and below the diagonal, and the parallel path writes ``A×D``
as ``D×A``'s transpose.  These tests pin that the kernel equals the full
product bit for bit, that every executor equals the full-product sweep
on dyadic and non-dyadic weights, that every level barrier of the
deferred sweep leaves the matrix symmetric (an escalated solve finishes
sequentially on it), that nothing short of exact symmetry enters the
mode, and that a fault inside it retries bit-exactly.
"""

import numpy as np
import pytest

import repro.semiring.engine as engine_mod
from repro.core.incremental import quantize_weights
from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import _accumulate_aa, eliminate_supernode, superfw
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import barabasi_albert, delaunay_mesh
from repro.graphs.graph import Graph
from repro.plan import analyze
from repro.resilience.errors import KernelFaultError
from repro.resilience.faults import FaultInjector, FaultSpec, inject_faults
from repro.resilience.retry import RetryPolicy
from repro.semiring.engine import (
    SemiringGemmEngine,
    WorkspacePool,
    minplus_kernel,
    minplus_symmetric_kernel,
    symmetric_strips,
)
from repro.semiring.kernels import outer_update


def _panel(r, k, seed, dtype=np.float64, inf_frac=0.3, dyadic=False):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 2.0, size=(r, k))
    if dyadic:
        a = np.round(a * 8) / 8
    a[rng.uniform(size=a.shape) < inf_frac] = np.inf
    return a.astype(dtype)


def _symmetric_start(r, seed, dtype=np.float64, inf_frac=0.5):
    """A symmetric accumulator: the lower triangle mirrored, inf-heavy."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(0.0, 3.0, size=(r, r))
    c[rng.uniform(size=c.shape) < inf_frac] = np.inf
    c = np.tril(c) + np.tril(c, -1).T
    np.fill_diagonal(c, 0.0)
    return c.astype(dtype)


def _both(a, out):
    """``out ⊕= a ⊗ aᵀ`` by the full kernel and by the symmetric mode."""
    b = np.ascontiguousarray(a.T)
    full, sym = out.copy(), out.copy()
    minplus_kernel(WorkspacePool(), a, b, full)
    ops = minplus_symmetric_kernel(WorkspacePool(), a, b, sym)
    return full, sym, ops


SHAPES = [(1, 5), (2, 0), (5, 3), (31, 7), (32, 1), (63, 4), (64, 9),
          (65, 17), (100, 40), (199, 57), (257, 3), (300, 12)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("r,k", SHAPES)
def test_symmetric_mode_equals_the_full_product_bit_for_bit(r, k, dtype):
    for seed, inf_frac, dyadic in [(0, 0.2, False), (1, 0.9, False), (2, 0.3, True)]:
        a = _panel(r, k, seed, dtype, inf_frac, dyadic)
        out = _symmetric_start(r, seed + 10, dtype)
        full, sym, ops = _both(a, out)
        assert sym.dtype == full.dtype
        assert np.array_equal(full.view(f"u{full.itemsize}"),
                              sym.view(f"u{sym.itemsize}")), (r, k, seed)
        strips = symmetric_strips(r)
        if strips == 1:
            assert ops == 2 * r * k * r
        else:
            assert ops < 2 * r * k * r


def test_strip_count_is_a_function_of_the_shape():
    assert [symmetric_strips(r) for r in (0, 1, 31, 32, 63, 64, 199, 256, 10**4)] \
        == [1, 1, 1, 1, 1, 2, 6, 8, 8]


def test_engine_counts_one_call_and_the_executed_ops():
    eng = SemiringGemmEngine()
    a = _panel(199, 57, 0)
    out = np.full((199, 199), np.inf)
    eng.gemm(a, np.ascontiguousarray(a.T), out=out, accumulate=True, symmetric=True)
    stats = eng.stats_dict()["strategies"]["minplus"]
    bounds = [199 * i // 6 for i in range(7)]
    executed = sum(2 * (r1 - r0) * 57 * r1 for r0, r1 in zip(bounds, bounds[1:]))
    assert stats["calls"] == 1 and stats["ops"] == executed < 2 * 199 * 57 * 199
    with pytest.raises(ValueError):
        eng.gemm(a[:5], a[:6].T, symmetric=True)


def test_outer_update_charges_the_law():
    a = _panel(96, 10, 3)
    block = _symmetric_start(96, 4)
    full = block.copy()
    law = outer_update(block, a, np.ascontiguousarray(a.T), symmetric=True)
    assert law == outer_update(full, a, np.ascontiguousarray(a.T)) == 2 * 96 * 10 * 96
    assert np.array_equal(block, full)


# ---------------------------------------------------------------------------
# The sweep on every executor
# ---------------------------------------------------------------------------


def _disconnected() -> Graph:
    left = delaunay_mesh(90, seed=4).edge_array()
    right = barabasi_albert(80, 3, seed=5).edge_array()
    right[:, :2] += 90
    return Graph.from_edges(170, np.vstack([left, right]))


def _forest() -> Graph:
    rng = np.random.default_rng(6)
    n = 150
    parents = [(v, int(rng.integers(0, v)), rng.uniform(0.1, 1.0))
               for v in range(1, n) if v % 40]
    return Graph.from_edges(n, parents)


GRAPHS = {
    "preferential-attachment": lambda: barabasi_albert(200, 3, seed=1),
    "delaunay": lambda: delaunay_mesh(160, seed=3),
    "disconnected": _disconnected,
    "forest": _forest,
}

SOLVERS = {
    "sequential": superfw,
    "thread": lambda g, **kw: parallel_superfw(g, num_workers=2, **kw),
    "process": lambda g, **kw: parallel_superfw(
        g, backend="process", num_workers=2, **kw
    ),
}


def _full_product_sweep(graph, plan) -> np.ndarray:
    """The sequential sweep with two PanelUpdates and full outer products."""
    perm = plan.ordering.perm
    dist = graph.to_dense_dist()[np.ix_(perm, perm)]
    for s in range(plan.structure.ns):
        eliminate_supernode(dist, plan.structure, s)
    iperm = np.argsort(perm)
    return dist[np.ix_(iperm, iperm)]


@pytest.mark.parametrize("weights", ["dyadic", "generator"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_every_executor_equals_the_full_product_sweep(name, weights):
    graph = GRAPHS[name]()
    if weights == "dyadic":
        graph = quantize_weights(graph)
    plan = analyze(graph, seed=0)
    expected = _full_product_sweep(graph, plan)
    for executor, solve in SOLVERS.items():
        r = solve(graph, plan=plan)
        assert np.array_equal(r.dist, expected), executor
        if executor == "process":
            assert r.meta["supervised"]


@pytest.mark.parametrize("weights", ["dyadic", "generator"])
@pytest.mark.parametrize("name", ["preferential-attachment", "delaunay"])
def test_deferred_levels_keep_the_matrix_symmetric_for_a_sequential_finish(
    name, weights
):
    # An escalated solve finishes on the sequential executor over the
    # matrix the pools left, so every level barrier must leave it
    # symmetric bit for bit, A×D included.
    graph = GRAPHS[name]()
    if weights == "dyadic":
        graph = quantize_weights(graph)
    plan = analyze(graph, seed=0)
    st = plan.structure
    perm = plan.ordering.perm
    dist = graph.to_dense_dist()[np.ix_(perm, perm)]
    levels = st.level_order()
    half = len(levels) // 2
    assert half > 0
    for level in levels[:half]:
        for s in level.tolist():
            update = eliminate_supernode(dist, st, s, defer_aa=True, mirror=True)
            if update is not None:
                _accumulate_aa(dist, st.row_runs(s).anc, update)
        assert np.array_equal(dist.view(np.uint64), dist.T.view(np.uint64))
    for level in levels[half:]:
        for s in level.tolist():
            eliminate_supernode(dist, st, s, mirror=True)
    iperm = np.argsort(perm)
    assert np.array_equal(
        dist[np.ix_(iperm, iperm)], _full_product_sweep(graph, plan)
    )


@pytest.fixture
def symmetric_calls(monkeypatch):
    """Row counts of every symmetric-mode product run in this process."""
    seen = []
    real = engine_mod.minplus_symmetric_kernel

    def spy(pool, a, b, out):
        seen.append(a.shape[0])
        return real(pool, a, b, out)

    monkeypatch.setattr(engine_mod, "minplus_symmetric_kernel", spy)
    return seen


def _arcs(graph) -> np.ndarray:
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    return np.column_stack([rows, graph.indices, graph.weights])


def _allclose_only(graph: Graph) -> Graph:
    w = graph.weights.copy()
    w[0] += 2.0**-30
    return graph.with_weights(w)


def _directed(graph: Graph) -> DiGraph:
    arcs = _arcs(graph)
    arcs[:, 2] *= np.where(arcs[:, 0] < arcs[:, 1], 1.0, 1.5)
    return DiGraph.from_edges(graph.n, arcs)


def _negative_arcs(graph: Graph) -> DiGraph:
    """Johnson-reweighted arcs: many negative, no negative cycle."""
    arcs = _arcs(graph)
    u, v = arcs[:, 0].astype(np.int64), arcs[:, 1].astype(np.int64)
    p = np.random.default_rng(7).uniform(0.0, 2.0, graph.n)
    w = arcs[:, 2] + p[u] - p[v]
    assert (w < 0).any()
    return DiGraph.from_edges(graph.n, np.column_stack([u, v, w]))


@pytest.mark.parametrize("kind", ["directed", "negative-arcs", "allclose-only"])
def test_asymmetric_inputs_never_enter_the_symmetric_mode(kind, symmetric_calls):
    graph = barabasi_albert(200, 3, seed=1)
    graph = {"directed": _directed, "negative-arcs": _negative_arcs,
             "allclose-only": _allclose_only}[kind](graph)
    plan = analyze(graph, seed=0)
    expected = _full_product_sweep(graph, plan)
    for executor in ("sequential", "thread"):
        assert np.array_equal(SOLVERS[executor](graph, plan=plan).dist, expected)
    assert symmetric_calls == []


def test_symmetric_inputs_enter_it_with_several_strips(symmetric_calls):
    graph = barabasi_albert(200, 3, seed=1)
    plan = analyze(graph, seed=0)
    superfw(graph, plan=plan)
    sequential = list(symmetric_calls)
    parallel_superfw(graph, plan=plan, num_workers=2)
    assert sequential and len(symmetric_calls) > len(sequential)
    assert max(symmetric_strips(r) for r in symmetric_calls) > 1


@pytest.mark.parametrize("executor", ["sequential", "thread"])
def test_an_outer_kernel_fault_retries_bit_exactly(executor, monkeypatch):
    graph = barabasi_albert(200, 3, seed=1)
    plan = analyze(graph, seed=0)
    expected = superfw(graph, plan=plan).dist
    sites = []
    real = FaultInjector.on_kernel

    def record(self, site, block):
        try:
            real(self, site, block)
        except KernelFaultError:
            sites.append((site, block.shape[0] == block.shape[1]))
            raise

    monkeypatch.setattr(FaultInjector, "on_kernel", record)
    with inject_faults(FaultSpec(seed=2, kernel_error_rate=0.15)):
        r = SOLVERS[executor](graph, plan=plan, retry=RetryPolicy(max_attempts=8))
    assert ("outer", True) in sites
    assert r.meta["recovery"]["task_retries"] > 0
    assert np.array_equal(r.dist, expected)

"""SemiringGemm engine: the one kernel's step regimes, dtypes, workspace."""

import numpy as np
import pytest

import repro.semiring.engine as engine_mod
from repro.semiring.engine import (
    KERNEL,
    SemiringGemmEngine,
    WorkspacePool,
    get_engine,
    minplus_kernel,
    set_engine,
)
from repro.semiring.kernels import (
    diag_update,
    panel_update_cols,
    panel_update_rows,
)
from repro.semiring.minplus import minplus_gemm, minplus_inner, result_dtype


def _rand(shape, seed=0, dtype=np.float64, inf_frac=0.3):
    rng = np.random.default_rng(seed)
    out = rng.uniform(0.1, 2.0, size=shape).astype(dtype)
    out[rng.uniform(size=shape) < inf_frac] = np.inf
    return out


def _kernel(a, b, out=None):
    """Run the kernel directly: ``out ⊕= a ⊗ b`` (``out`` starts at inf)."""
    if out is None:
        out = np.full((a.shape[0], b.shape[1]), np.inf, dtype=result_dtype(a, b))
    minplus_kernel(WorkspacePool(), a, b, out)
    return out


#: Step-buffer sizes for the kernel's regimes on the test operands (all
#: dimensions < 40): ``rank1`` runs one pivot per step (``kc == 1``),
#: ``ktiled`` a few pivots per step with ragged last steps on small
#: outputs, and ``whole`` is the default :data:`engine.B`, where most
#: contractions fit one step.
STEPS = {"rank1": 1, "ktiled": 97, "whole": engine_mod.B}


@pytest.fixture(params=list(STEPS))
def steps(request, monkeypatch):
    """Set :data:`engine.B` to one regime's step-buffer size."""
    monkeypatch.setattr(engine_mod, "B", STEPS[request.param])
    return request.param


# ---------------------------------------------------------------------------
# Property-based kernel equivalence: every step regime must match the
# quadratic-memory oracle bit for bit (min over identical candidate sets
# of deterministically rounded sums is step-size-invariant).
# ---------------------------------------------------------------------------


def test_strategies_match_oracle_bit_for_bit(steps):
    rng = np.random.default_rng(42)
    for trial in range(25):
        m, k, n = rng.integers(1, 40, size=3)
        a = _rand((m, k), seed=1000 + trial)
        b = _rand((k, n), seed=2000 + trial)
        assert np.array_equal(_kernel(a, b), minplus_inner(a, b)), (m, k, n)
        # Strided operands, as a mirrored row panel (a transposed view).
        at, bt = a.T.copy().T, b.T.copy().T
        assert np.array_equal(_kernel(at, bt), minplus_inner(a, b)), (m, k, n)


def test_strategies_match_on_inf_patterns(steps):
    # All-inf operands, inf rows/columns, and a fully finite case.
    cases = [
        (np.full((4, 3), np.inf), np.full((3, 5), np.inf)),
        (_rand((6, 4), seed=1, inf_frac=0.9), _rand((4, 6), seed=2, inf_frac=0.9)),
        (_rand((5, 5), seed=3, inf_frac=0.0), _rand((5, 5), seed=4, inf_frac=0.0)),
    ]
    for a, b in cases:
        assert np.array_equal(_kernel(a, b), minplus_inner(a, b))


def test_strategies_k_zero(steps):
    out = SemiringGemmEngine().gemm(np.empty((3, 0)), np.empty((0, 4)))
    assert out.shape == (3, 4) and np.all(np.isinf(out))


def test_strategies_accumulate(steps):
    a = _rand((7, 5), seed=5)
    b = _rand((5, 6), seed=6)
    prior = _rand((7, 6), seed=7)
    out = _kernel(a, b, out=prior.copy())
    assert np.array_equal(out, np.minimum(prior, minplus_inner(a, b)))


def test_strategies_float32_exact(steps):
    a = _rand((9, 11), seed=8, dtype=np.float32)
    b = _rand((11, 7), seed=9, dtype=np.float32)
    got = _kernel(a, b)
    assert got.dtype == np.float32
    assert np.array_equal(got, minplus_inner(a, b).astype(np.float32))


def test_block_edges_cover_every_step_count(monkeypatch):
    """``kc`` from 1 to past ``k``, ragged last steps included."""
    m, k, n = 5, 23, 6
    a = _rand((m, k), seed=11)
    b = _rand((k, n), seed=12)
    want = minplus_inner(a, b)
    for kc in range(1, k + 2):
        monkeypatch.setattr(engine_mod, "B", kc * m * n)
        assert np.array_equal(_kernel(a, b), want), kc


def test_forced_strategy_equals_auto(monkeypatch):
    """The engine's default step size gives the bits every forced one does."""
    a = _rand((30, 20), seed=10)
    b = _rand((20, 25), seed=11)
    picked = SemiringGemmEngine().gemm(a, b)
    for size in (1, 30 * 25 * 3, 30 * 25 * 7):
        monkeypatch.setattr(engine_mod, "B", size)
        assert np.array_equal(picked, _kernel(a, b)), size


def _closed_diag(b, seed):
    """A transitively closed ``b x b`` block on dyadic weights."""
    rng = np.random.default_rng(seed)
    diag = rng.integers(1, 64, size=(b, b)) / 8.0
    diag[rng.uniform(size=(b, b)) < 0.5] = np.inf
    np.fill_diagonal(diag, 0.0)
    diag_update(diag)
    return diag


def test_aliased_panel_products_on_a_closed_diagonal(steps):
    """In-place PanelUpdates equal the copy-based product bit for bit.

    ``out`` aliases an operand: the column panel is ``a``, the row panel
    ``b``.  With the diagonal block closed, a relaxation through an
    already-updated panel entry is dominated by a direct candidate, and
    dyadic weights make every sum exact, so the bits cannot move.
    """
    rng = np.random.default_rng(5)
    for b, r in ((1, 9), (6, 1), (13, 17), (24, 31)):
        diag = _closed_diag(b, seed=b)
        col = rng.integers(1, 64, size=(r, b)) / 8.0
        col[rng.uniform(size=(r, b)) < 0.4] = np.inf
        row = col.T.copy()
        want_col = np.minimum(col, minplus_inner(col, diag))
        want_row = np.minimum(row, minplus_inner(diag, row))
        panel_update_cols(col, diag)
        panel_update_rows(row, diag)
        assert np.array_equal(col, want_col), (b, r)
        assert np.array_equal(row, want_row), (b, r)
        # A symmetric closed block gives mirrored panels, bit for bit.
        sym = np.minimum(diag, diag.T)
        diag_update(sym)
        c, rw = col.copy(), col.T.copy()
        panel_update_cols(c, sym)
        panel_update_rows(rw, sym)
        assert np.array_equal(c.T, rw), (b, r)


# ---------------------------------------------------------------------------
# Dtype propagation (the minplus_gemm float32 fix)
# ---------------------------------------------------------------------------


def test_minplus_gemm_preserves_float32():
    a = _rand((4, 4), seed=1, dtype=np.float32)
    b = _rand((4, 4), seed=2, dtype=np.float32)
    assert minplus_gemm(a, b).dtype == np.float32


def test_minplus_gemm_mixed_dtypes_widen():
    a = _rand((3, 3), seed=1, dtype=np.float32)
    b = _rand((3, 3), seed=2, dtype=np.float64)
    assert minplus_gemm(a, b).dtype == np.float64


def test_result_dtype_int_inputs_widen_to_float64():
    # Integer matrices cannot hold +inf; the product must be float.
    assert result_dtype(np.ones((2, 2), np.int64), np.ones((2, 2), np.int32)) == np.float64
    assert (
        minplus_gemm(np.ones((2, 2), dtype=np.int32), np.ones((2, 2), dtype=np.int32)).dtype
        == np.float64
    )


def test_engine_dtype_matches_minplus_gemm(steps):
    for dt in (np.float32, np.float64):
        a = _rand((5, 5), seed=3, dtype=dt)
        b = _rand((5, 5), seed=4, dtype=dt)
        got = _kernel(a, b)
        assert got.dtype == dt
        assert np.array_equal(got, minplus_gemm(a, b))


# ---------------------------------------------------------------------------
# Workspace pool
# ---------------------------------------------------------------------------


def test_workspace_pool_reuses_buffers():
    pool = WorkspacePool()
    b1 = pool.buffer("x", (8, 8), np.float64)
    b2 = pool.buffer("x", (8, 8), np.float64)
    assert np.shares_memory(b1, b2)
    assert pool.hits == 1 and pool.misses == 1
    # A smaller request reuses the same storage.
    b3 = pool.buffer("x", (4, 4), np.float64)
    assert np.shares_memory(b1, b3)
    assert pool.hits == 2
    # A dtype change reallocates.
    pool.buffer("x", (8, 8), np.float32)
    assert pool.misses == 2


def test_engine_workspace_hit_rate_over_repeated_calls():
    engine = SemiringGemmEngine()
    a = _rand((16, 16), seed=1)
    b = _rand((16, 16), seed=2)
    for _ in range(5):
        engine.gemm(a, b)
    stats = engine.stats_dict()
    assert stats["workspace"]["hits"] > stats["workspace"]["misses"]


# ---------------------------------------------------------------------------
# Ambient engine plumbing and solver meta
# ---------------------------------------------------------------------------


def test_set_engine_restores_previous():
    before = get_engine()
    mine = SemiringGemmEngine()
    assert set_engine(mine) is before
    try:
        assert get_engine() is mine
    finally:
        assert set_engine(before) is mine
    assert get_engine() is before


def test_stats_delta_reporting():
    engine = SemiringGemmEngine()
    engine.gemm(_rand((4, 3), seed=1), _rand((3, 4), seed=2))
    snap = engine.stats_snapshot()
    engine.gemm(_rand((4, 3), seed=3), _rand((3, 4), seed=4))
    delta = engine.stats_dict(since=snap)["strategies"]
    assert list(delta) == [KERNEL]
    assert delta[KERNEL]["calls"] == 1
    assert delta[KERNEL]["ops"] == 2 * 4 * 3 * 4


def test_solvers_report_engine_meta():
    from repro.core.blocked_fw import blocked_floyd_warshall
    from repro.core.superfw import superfw
    from repro.graphs.generators import grid2d

    # A 6x6 grid's plan is one block (a diagonal closure, no product);
    # a 10x10 grid keeps several, whose panels run the kernel.
    g = grid2d(10, 10, seed=0)
    r1 = superfw(g)
    assert r1.meta["plan"].structure.ns > 1
    assert set(r1.meta["engine"]) == {"strategies", "workspace"}
    assert r1.meta["engine"]["strategies"][KERNEL]["calls"] > 0
    r2 = blocked_floyd_warshall(g, block_size=12)
    assert r2.meta["engine"]["strategies"][KERNEL]["calls"] > 0
    # The in-place panel updates may cascade relaxations differently
    # from the supernodal order, so the two solves agree to rounding.
    np.testing.assert_allclose(r1.dist, r2.dist, rtol=1e-12)


def test_traced_dispatch_matches_untraced():
    from repro.core.superfw import superfw
    from repro.graphs.generators import delaunay_mesh
    from repro.obs import Tracer, use_tracer

    g = delaunay_mesh(160, seed=1)
    plain = superfw(g, seed=0)
    tracer = Tracer()
    with use_tracer(tracer):
        traced = superfw(g, seed=0)

    def counts(result):
        return {name: (v["calls"], v["ops"])
                for name, v in result.meta["engine"]["strategies"].items()}

    assert counts(plain) == counts(traced)
    assert np.array_equal(plain.dist, traced.dist)
    gemms = [e for e in tracer.events() if e.name == "gemm"]
    assert len(gemms) == sum(calls for calls, _ in counts(traced).values())
    assert all(e.args["strategy"] == KERNEL for e in gemms)
    dispatch = tracer.metrics.snapshot()["counters"]
    assert {
        name: int(dispatch["engine.dispatch." + name]) for name in counts(traced)
    } == {name: calls for name, (calls, _) in counts(traced).items()}

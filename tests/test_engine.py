"""SemiringGemm engine: strategy equivalence, dtypes, tuner, workspace."""

import json

import numpy as np
import pytest

from repro.semiring.engine import (
    STRATEGIES,
    SemiringGemmEngine,
    WorkspacePool,
    get_engine,
    make_engine,
    use_engine,
)
from repro.semiring.minplus import minplus_gemm, minplus_inner, result_dtype


def _rand(shape, seed=0, dtype=np.float64, inf_frac=0.3):
    rng = np.random.default_rng(seed)
    out = rng.uniform(0.1, 2.0, size=shape).astype(dtype)
    out[rng.uniform(size=shape) < inf_frac] = np.inf
    return out


# ---------------------------------------------------------------------------
# Property-based strategy equivalence: every strategy must match the
# quadratic-memory oracle bit for bit (min over identical candidate sets
# of deterministically rounded sums is tiling-invariant).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_match_oracle_bit_for_bit(strategy):
    rng = np.random.default_rng(42)
    engine = SemiringGemmEngine(strategy, kc=3, tile_m=8, tile_n=8)
    for trial in range(25):
        m, k, n = rng.integers(1, 40, size=3)
        a = _rand((m, k), seed=1000 + trial)
        b = _rand((k, n), seed=2000 + trial)
        got = engine.gemm(a, b)
        assert np.array_equal(got, minplus_inner(a, b)), (strategy, m, k, n)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_match_on_inf_patterns(strategy):
    engine = SemiringGemmEngine(strategy, kc=2)
    # All-inf operands, inf rows/columns, and a fully finite case.
    cases = [
        (np.full((4, 3), np.inf), np.full((3, 5), np.inf)),
        (_rand((6, 4), seed=1, inf_frac=0.9), _rand((4, 6), seed=2, inf_frac=0.9)),
        (_rand((5, 5), seed=3, inf_frac=0.0), _rand((5, 5), seed=4, inf_frac=0.0)),
    ]
    for a, b in cases:
        assert np.array_equal(engine.gemm(a, b), minplus_inner(a, b))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_k_zero(strategy):
    engine = SemiringGemmEngine(strategy)
    out = engine.gemm(np.empty((3, 0)), np.empty((0, 4)))
    assert out.shape == (3, 4) and np.all(np.isinf(out))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_accumulate(strategy):
    engine = SemiringGemmEngine(strategy, kc=2)
    a = _rand((7, 5), seed=5)
    b = _rand((5, 6), seed=6)
    prior = _rand((7, 6), seed=7)
    out = prior.copy()
    engine.gemm(a, b, out=out, accumulate=True)
    assert np.array_equal(out, np.minimum(prior, minplus_inner(a, b)))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategies_float32_exact(strategy):
    engine = SemiringGemmEngine(strategy, kc=4)
    a = _rand((9, 11), seed=8, dtype=np.float32)
    b = _rand((11, 7), seed=9, dtype=np.float32)
    got = engine.gemm(a, b)
    assert got.dtype == np.float32
    # The rank-1 reference at float32 is the bit-exact baseline here.
    ref = minplus_gemm(a, b)
    assert ref.dtype == np.float32
    assert np.array_equal(got, ref)


def test_forced_strategy_equals_auto():
    a = _rand((30, 20), seed=10)
    b = _rand((20, 25), seed=11)
    auto = SemiringGemmEngine("auto").gemm(a, b)
    for strategy in STRATEGIES:
        assert np.array_equal(auto, SemiringGemmEngine(strategy).gemm(a, b))


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


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_engine_dtype_matches_minplus_gemm(strategy):
    engine = SemiringGemmEngine(strategy)
    for dt in (np.float32, np.float64):
        a = _rand((5, 5), seed=3, dtype=dt)
        b = _rand((5, 5), seed=4, dtype=dt)
        assert engine.gemm(a, b).dtype == dt


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
    engine = SemiringGemmEngine("rank1")
    a = _rand((16, 16), seed=1)
    b = _rand((16, 16), seed=2)
    for _ in range(5):
        engine.gemm(a, b)
    stats = engine.stats_dict()
    assert stats["workspace"]["hits"] > stats["workspace"]["misses"]


# ---------------------------------------------------------------------------
# Autotuner cache
# ---------------------------------------------------------------------------


def test_autotuner_cache_roundtrip(tmp_path):
    cache = tmp_path / "tune.json"
    engine = SemiringGemmEngine("auto", cache_path=cache)
    report = engine.calibrate(shapes=[(16, 16, 16)], repeats=1)
    assert cache.exists()
    payload = json.loads(cache.read_text())
    assert payload["version"] == 1
    assert report  # one entry per calibrated shape
    # A fresh engine loads the table and dispatches from it.
    engine2 = SemiringGemmEngine("auto", cache_path=cache)
    tuned = engine2.tuner.lookup(16, 16, 16, np.float64)
    assert tuned in STRATEGIES


def test_autotuner_ignores_foreign_cache(tmp_path):
    cache = tmp_path / "bad.json"
    cache.write_text(json.dumps({"version": 99, "entries": {"1x1x1/float64": {"strategy": "rank1"}}}))
    engine = SemiringGemmEngine("auto", cache_path=cache)
    assert engine.tuner.entries == {}


# ---------------------------------------------------------------------------
# Ambient engine plumbing and solver meta
# ---------------------------------------------------------------------------


def test_use_engine_restores_previous():
    before = get_engine()
    with use_engine("rank1") as eng:
        assert get_engine() is eng and eng is not before
    assert get_engine() is before


def test_make_engine_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        make_engine("simd")


def test_stats_delta_reporting():
    engine = SemiringGemmEngine("rank1")
    engine.gemm(_rand((4, 3), seed=1), _rand((3, 4), seed=2))
    snap = engine.stats_snapshot()
    engine.gemm(_rand((4, 3), seed=3), _rand((3, 4), seed=4))
    delta = engine.stats_dict(since=snap)["strategies"]
    assert delta["rank1"]["calls"] == 1
    assert delta["rank1"]["ops"] == 2 * 4 * 3 * 4


def test_solvers_report_engine_meta():
    from repro.core.blocked_fw import blocked_floyd_warshall
    from repro.core.superfw import superfw
    from repro.graphs.generators import grid2d

    g = grid2d(6, 6, seed=0)
    r1 = superfw(g, engine="rank1")
    assert r1.meta["engine"]["strategy"] == "rank1"
    assert r1.meta["engine"]["strategies"]["rank1"]["calls"] > 0
    r2 = blocked_floyd_warshall(g, engine="ktiled", block_size=12)
    assert r2.meta["engine"]["strategy"] == "ktiled"
    # Strategies are bit-identical on non-aliased products (tested above
    # against the oracle); inside a solver the *aliased* in-place panel
    # updates may cascade relaxations differently per strategy, so whole
    # solves agree to rounding only.
    np.testing.assert_allclose(r1.dist, r2.dist, rtol=1e-12)
    r3 = blocked_floyd_warshall(g, engine="rank1", block_size=12)
    np.testing.assert_allclose(r2.dist, r3.dist, rtol=1e-12)


def test_env_var_selects_default_strategy(monkeypatch):
    import repro.semiring.engine as engine_mod

    monkeypatch.setattr(engine_mod, "_engine", None)
    monkeypatch.setenv("REPRO_ENGINE", "ktiled")
    try:
        assert engine_mod.get_engine().strategy == "ktiled"
    finally:
        engine_mod.set_engine(None)


# ---------------------------------------------------------------------------
# Dispatch memo: exact-shape memoization of choose()
# ---------------------------------------------------------------------------


def _memo(engine) -> dict:
    """The engine's current ``(m, k, n, dtype) -> strategy`` memo."""
    return engine._memo[2]


def _superfw_with(engine, tracer=None):
    from repro.core.superfw import superfw
    from repro.graphs.generators import delaunay_mesh
    from repro.obs import Tracer, use_tracer

    g = delaunay_mesh(160, seed=1)
    if tracer is None:
        return superfw(g, engine=engine, seed=0)
    with use_tracer(tracer):
        return superfw(g, engine=engine, seed=0)


def test_memoized_choice_equals_choose():
    engine = SemiringGemmEngine("auto")
    shapes = [(8, 8, 8), (4, 1100, 4), (40, 70, 40), (300, 64, 300),
              (2000, 64, 2000), (64, 2048, 64)]
    for m, k, n in shapes:
        picked = engine._memoized_choice(m, k, n, np.dtype(np.float64))
        assert picked == engine.choose(m, k, n, np.float64)
    assert set(_memo(engine).values()) >= {"rank1", "ktiled", "outtiled"}
    # A real dispatch goes where choose() says.
    engine.gemm(_rand((4, 1100), seed=1), _rand((1100, 4), seed=2))
    assert engine.stats_dict()["strategies"]["ktiled"]["calls"] == 1


def test_memo_invalidated_by_tuner_changes(tmp_path):
    engine = SemiringGemmEngine("auto")
    a, b = _rand((16, 16), seed=1), _rand((16, 16), seed=2)
    engine.gemm(a, b)
    assert _memo(engine)[(16, 16, 16, np.dtype(np.float64))] == "rank1"
    engine.tuner.record(16, 16, 16, np.float64, "outtiled")
    engine.gemm(a, b)
    assert engine.stats_dict()["strategies"]["outtiled"]["calls"] == 1
    # calibrate() re-records every bucket it measures.
    report = engine.calibrate(shapes=[(16, 16, 16)], repeats=1, persist=False)
    assert report
    assert engine._memoized_choice(16, 16, 16, np.dtype(np.float64)) == (
        engine.tuner.lookup(16, 16, 16, np.float64)
    )
    cache = tmp_path / "tune.json"
    cache.write_text(json.dumps({
        "version": 1, "entries": {"16x16x16/float64": {"strategy": "ktiled"}},
    }))
    engine.tuner.load(cache)
    before = engine.stats_snapshot()
    engine.gemm(a, b)
    delta = engine.stats_dict(since=before)["strategies"]
    assert list(delta) == ["ktiled"] and delta["ktiled"]["calls"] == 1
    # An explicit strategy= still forces the kernel past the memo.
    engine.gemm(a, b, strategy="rank1")
    assert engine.stats_dict(since=before)["strategies"]["rank1"]["calls"] == 1


def test_memo_keeps_stats_and_autotune_events():
    from repro.obs import Tracer

    memo_engine = SemiringGemmEngine("auto")
    plain = _superfw_with(memo_engine)
    assert _memo(memo_engine)  # the untraced solve went through the memo
    traced_engine = SemiringGemmEngine("auto")
    tracer = Tracer()
    traced = _superfw_with(traced_engine, tracer)  # choose() on every call

    def counts(result):
        return {name: (v["calls"], v["ops"])
                for name, v in result.meta["engine"]["strategies"].items()}

    assert counts(plain) == counts(traced)
    assert np.array_equal(plain.dist, traced.dist)
    # A traced solve on the memo-warm engine still announces each shape
    # bucket exactly once.
    tracer = Tracer()
    _superfw_with(memo_engine, tracer)
    buckets = [e.args["bucket"] for e in tracer.events() if e.name == "autotune"]
    assert buckets and len(buckets) == len(set(buckets))
    tuner = memo_engine.tuner
    assert set(buckets) == {tuner.key(*shape) for shape in _memo(memo_engine)}


def test_memo_under_concurrent_dispatch_and_retuning():
    import sys
    import threading

    engine = SemiringGemmEngine("auto")
    shapes = [(4, 3, 5), (8, 8, 8), (16, 2, 16), (3, 1100, 3), (16, 16, 16)]
    operands = [(_rand((m, k), seed=i), _rand((k, n), seed=i + 50))
                for i, (m, k, n) in enumerate(shapes)]
    oracles = [minplus_inner(a, b) for a, b in operands]
    wrong: list = []

    def dispatch():
        for _ in range(40):
            for (a, b), want in zip(operands, oracles):
                if not np.array_equal(engine.gemm(a, b), want):
                    wrong.append((a.shape, b.shape))

    def retune():
        for i in range(40):
            engine.tuner.record(16, 16, 16, np.float64, STRATEGIES[i % 3])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=dispatch) for _ in range(4)]
        threads.append(threading.Thread(target=retune))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
    # Whatever raced, the live memo agrees with the final tuner table.
    for m, k, n, dtype in _memo(engine):
        assert _memo(engine)[(m, k, n, dtype)] == engine.choose(m, k, n, dtype)

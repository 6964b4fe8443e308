"""The resilient execution layer: errors, faults, retry, budgets, fallback."""

import numpy as np
import pytest

from repro import apsp
from repro.graphs import generators as gen
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.graphs.validation import check_apsp_certificate, negative_cycle_witness
from repro.resilience import (
    BudgetExceededError,
    FallbackExhaustedError,
    FaultSpec,
    GraphValidationError,
    KernelFaultError,
    NegativeCycleError,
    ReproError,
    RetryPolicy,
    SolveBudget,
    TaskFailedError,
    call_with_retry,
    inject_faults,
    solve_with_fallback,
)
from repro.resilience.budget import as_tracker
from repro.resilience.faults import FaultInjector

from conftest import GRAPH_BUILDERS, scipy_apsp

# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


def test_error_hierarchy_roots():
    for exc_type in (
        GraphValidationError,
        NegativeCycleError,
        KernelFaultError,
        TaskFailedError,
        BudgetExceededError,
        FallbackExhaustedError,
    ):
        assert issubclass(exc_type, ReproError)


def test_validation_errors_remain_valueerrors():
    # Pre-existing `except ValueError` call sites must keep working.
    assert issubclass(GraphValidationError, ValueError)
    assert issubclass(NegativeCycleError, ValueError)


def test_negative_cycle_error_carries_witness():
    err = NegativeCycleError(witness=7)
    assert err.witness == 7
    assert "7" in str(err)


def test_nan_weight_raises_graph_validation_error():
    indptr = np.array([0, 1, 2])
    indices = np.array([1, 0])
    g = Graph(indptr, indices, np.array([np.nan, np.nan]))
    with pytest.raises(GraphValidationError, match="NaN"):
        apsp(g)


def test_infinite_weight_raises_graph_validation_error():
    indptr = np.array([0, 1, 2])
    indices = np.array([1, 0])
    g = Graph(indptr, indices, np.array([np.inf, np.inf]))
    with pytest.raises(GraphValidationError):
        apsp(g)


# ---------------------------------------------------------------------------
# Fault injector
# ---------------------------------------------------------------------------


def test_fault_draws_are_deterministic():
    spec = FaultSpec(seed=11, task_failure_rate=0.5)
    outcomes = []
    for _ in range(2):
        inj = FaultInjector(spec)
        row = []
        for s in range(20):
            try:
                inj.on_task(s, attempt=1)
                row.append(True)
            except TaskFailedError:
                row.append(False)
        outcomes.append(row)
    assert outcomes[0] == outcomes[1]
    assert not all(outcomes[0]) and any(outcomes[0])  # rate actually bites


def test_fault_rate_respects_seed_change():
    rows = {}
    for seed in (0, 1):
        inj = FaultInjector(FaultSpec(seed=seed, task_failure_rate=0.5))
        row = []
        for s in range(30):
            try:
                inj.on_task(s, attempt=1)
                row.append(True)
            except TaskFailedError:
                row.append(False)
        rows[seed] = row
    assert rows[0] != rows[1]


def test_injector_counts_stats(grid_graph):
    with inject_faults(seed=2, task_failure_rate=0.3) as inj:
        apsp(grid_graph, method="superfw")
    assert inj.stats.get("task_failures", 0) >= 1


def test_env_seed_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SEED", "99")
    assert FaultSpec().resolved_seed() == 99
    monkeypatch.setenv("REPRO_FAULT_SEED", "junk")
    assert FaultSpec().resolved_seed() == 0


def test_no_injector_is_noop(grid_graph):
    r = apsp(grid_graph, method="superfw")
    assert np.allclose(r.dist, scipy_apsp(grid_graph))


# ---------------------------------------------------------------------------
# Retry
# ---------------------------------------------------------------------------


def test_retry_succeeds_after_transient_failures():
    calls = []

    def flaky(attempt):
        calls.append(attempt)
        if attempt < 3:
            raise KernelFaultError("transient", site="outer")
        return "ok"

    out, used = call_with_retry(flaky, RetryPolicy(max_attempts=3))
    assert out == "ok" and used == 3 and calls == [1, 2, 3]


def test_retry_exhaustion_reraises_last_error():
    def always(attempt):
        raise TaskFailedError("nope", supernode=4, attempts=attempt)

    with pytest.raises(TaskFailedError):
        call_with_retry(always, RetryPolicy(max_attempts=2))


def test_retry_never_retries_budget_errors():
    calls = []

    def blown(attempt):
        calls.append(attempt)
        raise BudgetExceededError("over", limit="max_ops")

    with pytest.raises(BudgetExceededError):
        call_with_retry(blown, RetryPolicy(max_attempts=5))
    assert calls == [1]


def test_retry_backoff_schedule():
    policy = RetryPolicy(max_attempts=4, backoff_seconds=0.1, backoff_factor=2.0)
    assert policy.delay_before(1) == 0.0
    assert policy.delay_before(2) == pytest.approx(0.1)
    assert policy.delay_before(3) == pytest.approx(0.2)
    sleeps = []

    def fail_twice(attempt):
        if attempt < 3:
            raise KernelFaultError("x")
        return attempt

    out, _ = call_with_retry(fail_twice, policy, sleep=sleeps.append)
    assert out == 3
    assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]


def test_superfw_retries_recover_injected_task_failures(grid_graph):
    oracle = scipy_apsp(grid_graph)
    # Generous attempt cap: at rate 0.2 a supernode can lose several
    # independent draws in a row; 8 attempts makes that astronomically rare.
    with inject_faults(seed=1, task_failure_rate=0.2):
        r = apsp(grid_graph, method="superfw", retry=RetryPolicy(max_attempts=8))
    assert np.allclose(r.dist, oracle)
    assert r.meta["recovery"]["task_retries"] >= 1


def test_parallel_superfw_recovers_killed_tasks(grid_graph):
    oracle = scipy_apsp(grid_graph)
    with inject_faults(seed=5, task_failure_rate=0.3) as inj:
        r = apsp(grid_graph, method="parallel-superfw", num_workers=3)
    assert inj.stats.get("task_failures", 0) >= 1
    assert np.allclose(r.dist, oracle)
    assert r.meta["recovery"]["task_retries"] >= 1


def test_parallel_superfw_sequential_rerun_path(grid_graph):
    # max_attempts=1 disables pooled retry, forcing the level-recovery
    # sequential re-run to do the work.
    oracle = scipy_apsp(grid_graph)
    with inject_faults(seed=5, task_failure_rate=0.3):
        r = apsp(
            grid_graph,
            method="parallel-superfw",
            num_workers=3,
            retry=RetryPolicy(max_attempts=1),
        )
    assert np.allclose(r.dist, oracle)
    assert r.meta["recovery"]["sequential_reruns"]


_KERNEL_FAULT_SOLVERS = {
    "superfw": lambda g, retry: apsp(g, method="superfw", retry=retry),
    "thread": lambda g, retry: apsp(
        g, method="parallel-superfw", num_workers=2, retry=retry
    ),
    "process": lambda g, retry: apsp(
        g, method="parallel-superfw", backend="process", num_workers=2,
        retry=retry,
    ),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("executor", sorted(_KERNEL_FAULT_SOLVERS))
def test_kernel_fault_retries_are_bit_exact(executor, seed):
    # Non-dyadic float weights: a retry that started from its own
    # half-relaxed blocks would land ULPs low, so only a transactional
    # task (a failed attempt writes nothing) passes array_equal here.
    g = gen.grid2d(14, 14, seed=1)
    expected = apsp(g, method="superfw").dist
    with inject_faults(FaultSpec(seed=seed, kernel_error_rate=0.05)):
        r = _KERNEL_FAULT_SOLVERS[executor](g, RetryPolicy(max_attempts=8))
    assert r.meta["recovery"]["task_retries"] > 0
    assert np.array_equal(expected, r.dist)


def test_kernel_fault_retries_are_bit_exact_after_escalation():
    # Every worker dies, so the solve escalates to the thread executor,
    # whose in-process kernel faults must retry just as exactly.
    g = gen.grid2d(14, 14, seed=1)
    expected = apsp(g, method="superfw").dist
    spec = FaultSpec(seed=0, kernel_error_rate=0.05, worker_kill_rate=1.0)
    with inject_faults(spec):
        r = apsp(
            g, method="parallel-superfw", backend="process", num_workers=2,
            retry=RetryPolicy(max_attempts=8),
            supervise={"max_pool_rebuilds": 0},
        )
    assert r.meta["recovery"]["escalations"] == ["thread"]
    assert r.meta["recovery"]["task_retries"] > 0
    assert np.array_equal(expected, r.dist)


def test_task_failure_surfaces_when_unrecoverable(grid_graph):
    with inject_faults(task_failure_rate=1.0):
        with pytest.raises(TaskFailedError) as info:
            apsp(grid_graph, method="superfw")
    assert info.value.supernode is not None


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "method",
    ["superfw", "parallel-superfw", "blocked-fw", "dense-fw", "dijkstra",
     "boost-dijkstra", "delta-stepping", "auto"],
)
def test_impossible_op_budget_raises_not_hangs(grid_graph, method):
    with pytest.raises(BudgetExceededError) as info:
        apsp(grid_graph, method=method, budget=SolveBudget(max_ops=1))
    assert info.value.limit == "max_ops"
    assert info.value.progress["ops"] >= 0


def test_impossible_memory_budget_raises_before_alloc(grid_graph):
    with pytest.raises(BudgetExceededError) as info:
        apsp(grid_graph, budget=SolveBudget(max_bytes=16))
    assert info.value.limit == "max_bytes"


def test_wall_clock_budget_with_injected_delays(grid_graph):
    with inject_faults(task_delay_rate=1.0, delay_seconds=0.02):
        with pytest.raises(BudgetExceededError) as info:
            apsp(grid_graph, budget=SolveBudget(wall_seconds=0.01))
    assert info.value.limit == "wall_seconds"
    assert info.value.progress["elapsed_seconds"] > 0.0


def test_generous_budget_does_not_interfere(grid_graph):
    r = apsp(grid_graph, budget=SolveBudget(wall_seconds=300, max_ops=1e15))
    assert np.allclose(r.dist, scipy_apsp(grid_graph))


def test_budget_seconds_shorthand(grid_graph):
    r = apsp(grid_graph, budget=300.0)
    assert np.allclose(r.dist, scipy_apsp(grid_graph))


def test_budget_progress_reports_partial_work(grid_graph):
    with pytest.raises(BudgetExceededError) as info:
        apsp(grid_graph, budget=SolveBudget(max_ops=50_000))
    progress = info.value.progress
    assert progress["units_done"] >= 1  # some supernodes completed
    assert progress["units_done"] < progress["units_total"]


def test_budget_unsupported_method_rejected(grid_graph):
    with pytest.raises(ReproError, match="not supported"):
        apsp(grid_graph, method="johnson", budget=SolveBudget(max_ops=1))


def test_shared_tracker_spans_fallback_chain(grid_graph):
    # The chain must not reset the allowance between attempts.
    tracker = as_tracker(SolveBudget(max_ops=1))
    with pytest.raises(BudgetExceededError):
        solve_with_fallback(grid_graph, budget=tracker)


# ---------------------------------------------------------------------------
# Fallback chain (method="auto")
# ---------------------------------------------------------------------------

ACCEPTANCE_FAULTS = FaultSpec(seed=0, task_failure_rate=0.2)


def test_auto_with_20pct_task_failures_certificate_clean(any_graph):
    # Acceptance criterion: 20% per-supernode failure rate, fixed seed,
    # over the whole small graph suite.
    with inject_faults(ACCEPTANCE_FAULTS):
        r = apsp(any_graph, method="auto")
    check_apsp_certificate(any_graph, r.dist)
    assert np.allclose(r.dist, scipy_apsp(any_graph))
    assert r.meta["attempts"], "attempt trail must be recorded"
    assert r.meta["attempts"][-1]["status"] == "ok"


def test_auto_records_trail_without_faults(grid_graph):
    r = apsp(grid_graph, method="auto")
    assert [a["status"] for a in r.meta["attempts"]] == ["ok"]
    assert r.meta["fallback_chain"][0] == "superfw"


def test_auto_escalates_on_silent_corruption(grid_graph):
    # NaN corruption passes every retry but must be caught by the
    # certificate and escalated to a kernel-free backend.
    with inject_faults(seed=3, kernel_corruption_rate=1.0):
        r = apsp(grid_graph, method="auto")
    statuses = {a["method"]: a["status"] for a in r.meta["attempts"]}
    assert statuses["superfw"] == "rejected"
    assert r.method == "dijkstra"
    assert np.allclose(r.dist, scipy_apsp(grid_graph))


def test_auto_skips_dijkstra_family_on_negative_weights():
    # Directed: a negative arc without a negative cycle (any undirected
    # negative edge would itself be a negative 2-cycle).
    g = DiGraph.from_edges(4, [(0, 1, 2.0), (1, 2, -0.5), (2, 3, 1.0)])
    # Put dijkstra first so the skip (rather than an earlier success) is
    # what the trail records.
    r = solve_with_fallback(g, chain=("dijkstra", "superfw"))
    trail = {a["method"]: a["status"] for a in r.meta["attempts"]}
    assert trail == {"dijkstra": "skipped", "superfw": "ok"}
    check_apsp_certificate(g, r.dist)


def test_fallback_exhausted_carries_trail(grid_graph):
    with inject_faults(seed=3, kernel_corruption_rate=1.0):
        with pytest.raises(FallbackExhaustedError) as info:
            solve_with_fallback(grid_graph, chain=("superfw", "blocked-fw"))
    assert [a["method"] for a in info.value.trail] == ["superfw", "blocked-fw"]
    assert all(a["status"] in ("failed", "rejected") for a in info.value.trail)


def test_fallback_rejects_unknown_chain():
    g = gen.grid2d(4, 4, seed=0)
    with pytest.raises(ValueError, match="unknown methods"):
        solve_with_fallback(g, chain=("superfw", "quantum"))
    with pytest.raises(ValueError, match="unknown methods"):
        solve_with_fallback(g, chain=("auto",))


def test_auto_does_not_swallow_negative_cycles():
    g = Graph.from_edges(3, [(0, 1, -1.0), (1, 2, 2.0)])
    with pytest.raises(NegativeCycleError):
        apsp(g, method="auto")


# ---------------------------------------------------------------------------
# Negative-cycle detection flag
# ---------------------------------------------------------------------------


def test_detect_negative_cycles_flag_raises_with_witness():
    g = Graph.from_edges(3, [(0, 1, -1.0), (1, 2, 2.0)])
    with pytest.raises(NegativeCycleError) as info:
        apsp(g, method="superfw", detect_negative_cycles=True)
    assert info.value.witness in (0, 1)


def test_detect_negative_cycles_flag_passes_clean_graph(grid_graph):
    r = apsp(grid_graph, detect_negative_cycles=True)
    assert np.allclose(r.dist, scipy_apsp(grid_graph))


def test_detect_negative_cycles_rejected_for_dijkstra(grid_graph):
    with pytest.raises(ReproError, match="FW-family"):
        apsp(grid_graph, method="dijkstra", detect_negative_cycles=True)


def test_witness_none_on_clean_graph(grid_graph):
    assert negative_cycle_witness(grid_graph) is None


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------


def test_auto_empty_graph():
    r = apsp(Graph.from_edges(0, []), method="auto")
    assert r.dist.shape == (0, 0)


def test_auto_single_vertex():
    r = apsp(Graph.from_edges(1, []), method="auto")
    assert r.dist.shape == (1, 1) and r.dist[0, 0] == 0.0


def test_auto_isolated_vertex_all_inf_row():
    g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 2.0)])
    r = apsp(g, method="auto")
    off = [r.dist[3, j] for j in range(3)]
    assert np.all(np.isinf(off)) and r.dist[3, 3] == 0.0
    check_apsp_certificate(g, r.dist)


def test_certificate_rejects_nan_matrix(grid_graph):
    dist = scipy_apsp(grid_graph).copy()
    dist[1, 2] = dist[2, 1] = np.nan
    with pytest.raises(AssertionError, match="NaN"):
        check_apsp_certificate(grid_graph, dist)


# ---------------------------------------------------------------------------
# Whole-suite sweep at the acceptance fault rate (explicit, non-fixture)
# ---------------------------------------------------------------------------


def test_acceptance_sweep_all_small_graphs():
    for name, build in sorted(GRAPH_BUILDERS.items()):
        g = build()
        with inject_faults(ACCEPTANCE_FAULTS):
            r = apsp(g, method="auto")
        check_apsp_certificate(g, r.dist)
        assert r.meta["attempts"][-1]["status"] == "ok", name


def test_acceptance_sweep_process_backend(mesh_graph):
    """The 20%-fault acceptance rate also holds across process workers.

    Failures are injected *inside* the pool processes (the initializer
    replicates the coordinator's injector), retried there, and any
    survivors recovered sequentially by the coordinator.
    """
    with inject_faults(ACCEPTANCE_FAULTS):
        r = apsp(
            mesh_graph,
            method="parallel-superfw",
            backend="process",
            num_workers=2,
        )
    check_apsp_certificate(mesh_graph, r.dist)
    rec = r.meta["recovery"]
    assert rec["task_retries"] > 0  # the 20% rate must actually fire
    assert np.array_equal(r.dist, apsp(mesh_graph, method="superfw").dist)

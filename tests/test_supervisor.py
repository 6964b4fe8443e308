"""Supervised process backend: crash recovery, checkpoints, chaos.

Tasks are transactional (a failed attempt writes nothing) and a killed
worker's strips are rewound to the level barrier before its task runs
again, which is what lets the tests demand *bit-identical* equality with
the undisturbed sequential solve, not mere numerical closeness.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from conftest import GRAPH_BUILDERS
from test_cost_law import FIXTURES as COST_LAW_FIXTURES

from repro.core.parallel_superfw import (
    SharedPlanPool,
    _BarrierSnapshot,
    parallel_superfw,
)
from repro.core.superfw import eliminate_supernode, superfw
from repro.graphs.generators import grid2d
from repro.plan import analyze
from repro.resilience.budget import SolveBudget
from repro.resilience.checkpoint import CheckpointManager, solve_key, weights_sha
from repro.resilience.errors import (
    BudgetExceededError,
    SolveTimeoutError,
    WorkerCrashError,
)
from repro.resilience.faults import FaultSpec, _draw, inject_faults
from repro.resilience.supervisor import (
    EPOCH_STRIDE,
    HeartbeatBoard,
    Supervisor,
    SupervisorPolicy,
    coerce_policy,
)
from repro.symbolic.structure import superfw_snode_ops


# ---------------------------------------------------------------------------
# Policy coercion
# ---------------------------------------------------------------------------


def test_coerce_policy_variants():
    assert coerce_policy(None) is None
    assert coerce_policy(False) is None
    assert coerce_policy(True) == SupervisorPolicy()
    assert coerce_policy(2.5).task_timeout == 2.5
    assert coerce_policy({"max_pool_rebuilds": 7}).max_pool_rebuilds == 7
    policy = SupervisorPolicy(task_timeout=1.0)
    assert coerce_policy(policy) is policy
    with pytest.raises(TypeError, match="supervise"):
        coerce_policy("yes please")


def test_policy_rejects_unknown_escalation():
    with pytest.raises(ValueError, match="escalation"):
        SupervisorPolicy(escalate="gpu")
    with pytest.raises(ValueError, match="escalation"):
        SupervisorPolicy(escalate=("thread", "sequential"))


# ---------------------------------------------------------------------------
# HeartbeatBoard
# ---------------------------------------------------------------------------


def test_heartbeat_board_claim_beat_stale():
    board = HeartbeatBoard.create(2)
    try:
        lock = threading.Lock()
        slot_a = board.claim(lock)
        slot_b = board.claim(lock)
        assert {slot_a, slot_b} == {0, 1}
        assert board.pids() == [os.getpid()] * 2
        with pytest.raises(RuntimeError, match="full"):
            board.claim(lock)
        # Fresh beats are not stale; backdated ones are.
        assert board.stale(timeout=10.0) == []
        board.rows[slot_a, 1] -= 60.0
        assert board.stale(timeout=10.0) == [os.getpid()]
        board.beat(slot_a)
        assert board.stale(timeout=10.0) == []
        board.reset()
        assert board.pids() == []
    finally:
        board.release()


def test_heartbeat_board_attach_sees_owner_rows():
    board = HeartbeatBoard.create(1)
    try:
        board.claim(threading.Lock())
        other = HeartbeatBoard.attach(board.name, 1)
        assert other.pids() == [os.getpid()]
        other.close()  # worker-side detach must not unlink
        assert board.pids() == [os.getpid()]
    finally:
        board.release()


# ---------------------------------------------------------------------------
# Supervisor driven against a fake pool (no processes: pure state machine)
# ---------------------------------------------------------------------------


class FakePool:
    """Minimal Supervisor substrate: futures resolve only after a rebuild."""

    def __init__(self, stale_pids=()):
        self.rebuilds = 0
        self.terminated = False
        self._stale = list(stale_pids)

    def stale_workers(self, timeout):
        stale, self._stale = self._stale, []
        return stale

    def rebuild(self):
        self.rebuilds += 1

    def terminate(self):
        self.terminated = True


def _fast_policy(**kw):
    kw.setdefault("poll_interval", 0.01)
    kw.setdefault("heartbeat_timeout", 0.05)
    return SupervisorPolicy(**kw)


def test_supervisor_recovers_missed_heartbeats_with_epoch_bump():
    pool = FakePool(stale_pids=[4321])
    recovery = {}
    sup = Supervisor(_fast_policy(), pool, recovery=recovery)
    seen_bases = []

    def submit(s, attempt_base):
        seen_bases.append(attempt_base)
        future = Future()
        if pool.rebuilds > 0:  # only the post-rebuild epoch completes
            future.set_result(s * 10)
        return future

    results = {}
    failures = sup.run_group(
        [1, 2], submit=submit, on_result=lambda s, v: results.__setitem__(s, v)
    )
    assert failures == []
    assert results == {1: 10, 2: 20}
    assert pool.rebuilds == 1
    assert recovery["heartbeat_missed"] == 1
    assert recovery["pool_rebuilds"] == 1
    assert recovery["recoveries"][0]["cause"] == "heartbeat"
    # Redispatched tasks must draw fresh fault-injection attempt numbers.
    assert seen_bases == [0, 0, EPOCH_STRIDE, EPOCH_STRIDE]


def test_supervisor_timeout_exhaustion_raises_typed_and_terminates():
    pool = FakePool()
    sup = Supervisor(
        _fast_policy(task_timeout=0.05, max_pool_rebuilds=1), pool, recovery={}
    )

    def submit(s, attempt_base):
        return Future()  # never completes: a permanently hung worker

    with pytest.raises(SolveTimeoutError) as info:
        sup.run_group([3, 4], submit=submit, on_result=lambda s, v: None)
    assert info.value.cause == "timeout"
    assert info.value.rebuilds == 1
    assert info.value.pending == [3, 4]
    assert pool.rebuilds == 1  # the budget was spent before giving up
    assert pool.terminated  # stragglers must not outlive the group


def test_worker_crash_errors_survive_pickling():
    for exc in (
        WorkerCrashError("boom", cause="heartbeat", rebuilds=2, pending=[1, 5]),
        SolveTimeoutError("slow", rebuilds=1, pending=[9]),
    ):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert clone.cause == exc.cause
        assert clone.rebuilds == exc.rebuilds
        assert clone.pending == exc.pending
        assert str(clone) == str(exc)


# ---------------------------------------------------------------------------
# Chaos harness: kills and detaches recovered bit-identically
# ---------------------------------------------------------------------------


#: Chaos seeds, and each site's rate.  A kernel site fires per kernel
#: call, so it gets a per-call rate that fails about as many attempts as
#: the per-attempt process sites.  Every rate fires on at least one seed
#: and draws nothing at the third redispatch epoch, so recovery stays
#: within ``max_pool_rebuilds`` (``test_chaos_rates_exercise_recovery``).
CHAOS_SEEDS = (0, 1, 2)
CHAOS_RATES = {"worker_kill": 0.11, "shm_detach": 0.08, "kernel_error": 0.015}


def _chaos_spec(seed: int, site: str) -> FaultSpec:
    return FaultSpec(seed=seed, **{f"{site}_rate": CHAOS_RATES[site]})


def _process_site_fires(seed: int, site: str, ns: int, epoch: int = 0) -> bool:
    """Whether a first attempt of redispatch ``epoch`` draws ``site``.

    Chaos draws are stateless, keyed on ``(supernode, attempt)``, so
    this is known from the spec alone; the injector's own stats live in
    the worker processes.
    """
    key = site.replace("_", "-")
    attempt = epoch * EPOCH_STRIDE + 1
    return any(
        _draw(seed, key, s, attempt) < CHAOS_RATES[site] for s in range(ns)
    )


def _kernel_site_recovery(graph, seed: int) -> dict:
    """The retries a kernel-fault spec causes, from an in-process solve.

    Kernel draws are keyed per task attempt, and the thread executor runs
    the same kernel calls per task as a process worker (both split the
    outer update at A×A), so it retries exactly the same attempts.
    """
    with inject_faults(_chaos_spec(seed, "kernel_error")):
        return parallel_superfw(graph, num_workers=2).meta["recovery"]


@pytest.mark.parametrize("site", sorted(CHAOS_RATES))
def test_chaos_rates_exercise_recovery(site):
    g = GRAPH_BUILDERS["grid"]()
    ns = analyze(g).structure.ns
    if site == "kernel_error":
        fired = [_kernel_site_recovery(g, seed)["task_retries"] > 0
                 for seed in CHAOS_SEEDS]
    else:
        fired = [_process_site_fires(seed, site, ns) for seed in CHAOS_SEEDS]
        limit = SupervisorPolicy().max_pool_rebuilds
        assert not any(
            _process_site_fires(seed, site, ns, epoch=limit)
            for seed in CHAOS_SEEDS
        )
    assert any(fired), site


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("site", ["worker_kill", "shm_detach", "kernel_error"])
def test_chaos_recovery_is_bit_identical(seed, site):
    g = GRAPH_BUILDERS["grid"]()
    expected = superfw(g).dist
    with inject_faults(_chaos_spec(seed, site)):
        r = parallel_superfw(g, backend="process", num_workers=2)
    assert np.array_equal(expected, r.dist)
    assert r.meta["supervised"]
    recovery = r.meta["recovery"]
    rebuilds = recovery.get("pool_rebuilds", 0)
    assert rebuilds <= SupervisorPolicy().max_pool_rebuilds
    if site == "kernel_error":
        predicted = _kernel_site_recovery(g, seed)
        assert recovery["task_retries"] == predicted["task_retries"]
        assert recovery["sequential_reruns"] == predicted["sequential_reruns"]
    elif _process_site_fires(seed, site, r.meta["plan"].structure.ns):
        # A predicted first-attempt death must show as a recovery.
        assert rebuilds >= 1 and recovery["recoveries"]


def test_chaos_hang_detected_by_task_timeout(mesh_graph):
    expected = superfw(mesh_graph).dist
    spec = FaultSpec(seed=0, worker_hang_rate=0.05, worker_hang_seconds=30.0)
    with inject_faults(spec):
        r = parallel_superfw(
            mesh_graph,
            backend="process",
            num_workers=2,
            supervise={"task_timeout": 0.5, "poll_interval": 0.02},
        )
    assert np.array_equal(expected, r.dist)
    # Chaos draws are stateless, so whether any first-attempt hang fires
    # is predictable from the spec alone — the injector's own stats live
    # in the worker process and are invisible here.
    ns = r.meta["plan"].structure.ns
    predicted = any(
        _draw(0, "worker-hang", s, 1) < spec.worker_hang_rate
        for s in range(ns)
    )
    if predicted:
        causes = {
            rec["cause"] for rec in r.meta["recovery"].get("recoveries", [])
        }
        assert "timeout" in causes


def test_certain_kills_escalate_to_thread_bit_identically(grid_graph):
    expected = superfw(grid_graph).dist
    # Rate 1.0 defeats every redispatch epoch, so the rebuild budget is
    # guaranteed to exhaust and the solve must finish on the escalation
    # executor — whose in-process backends the origin_pid guard exempts
    # from chaos.
    with inject_faults(FaultSpec(seed=0, worker_kill_rate=1.0)):
        r = parallel_superfw(
            grid_graph,
            backend="process",
            num_workers=2,
            supervise={"max_pool_rebuilds": 0},
        )
    assert np.array_equal(expected, r.dist)
    assert r.meta["recovery"]["escalations"] == ["thread"]


def test_certain_kills_escalate_to_sequential_bit_identically(grid_graph):
    expected = superfw(grid_graph).dist
    with inject_faults(FaultSpec(seed=0, worker_kill_rate=1.0)):
        r = parallel_superfw(
            grid_graph,
            backend="process",
            num_workers=2,
            supervise={"max_pool_rebuilds": 0, "escalate": "sequential"},
        )
    assert np.array_equal(expected, r.dist)
    assert r.meta["recovery"]["escalations"] == ["sequential"]


def test_exhaustion_without_escalation_raises_worker_crash(grid_graph):
    with inject_faults(FaultSpec(seed=0, worker_kill_rate=1.0)):
        with pytest.raises(WorkerCrashError) as info:
            parallel_superfw(
                grid_graph,
                backend="process",
                num_workers=2,
                supervise={"max_pool_rebuilds": 0, "escalate": None},
            )
    assert info.value.cause == "crash"
    assert info.value.pending  # the unfinished level rides on the error


def test_unsupervised_crash_is_typed_not_raw(grid_graph):
    with inject_faults(FaultSpec(seed=0, worker_kill_rate=1.0)):
        with pytest.raises(WorkerCrashError, match="supervise=False"):
            parallel_superfw(
                grid_graph, backend="process", num_workers=2, supervise=False
            )


def test_session_pool_survives_exhausted_solve(grid_graph):
    plan = analyze(grid_graph)
    expected = superfw(grid_graph).dist
    # Pool built *inside* the fault context: workers capture the injector
    # at executor build time, so a pool built outside would never crash.
    with inject_faults(FaultSpec(seed=0, worker_kill_rate=1.0)):
        pool = SharedPlanPool(plan, num_workers=2)
    with pool:
        with inject_faults(FaultSpec(seed=0, worker_kill_rate=1.0)):
            with pytest.raises(WorkerCrashError):
                parallel_superfw(
                    grid_graph,
                    backend="process",
                    pool=pool,
                    supervise={"max_pool_rebuilds": 0, "escalate": None},
                )
        # ensure_alive() must transparently rebuild the terminated pool —
        # and the rebuild (now outside the fault context) comes up clean.
        r = parallel_superfw(grid_graph, backend="process", pool=pool)
        assert np.array_equal(expected, r.dist)


def test_rebuild_survives_a_worker_killed_mid_claim(grid_graph):
    plan = analyze(grid_graph)
    expected = superfw(grid_graph).dist
    with SharedPlanPool(plan, num_workers=2) as pool:
        # A worker SIGKILLed while claiming its heartbeat row never
        # releases the claim lock; the rebuilt pool must not inherit it,
        # or every new worker blocks in its initializer for good.
        held = pool._claim_lock
        assert held.acquire(timeout=5)
        pool.rebuild()
        assert pool._claim_lock is not held
        r = parallel_superfw(grid_graph, backend="process", pool=pool)
        assert np.array_equal(expected, r.dist)


@pytest.mark.parametrize("name", ["digraph", "forest", "mesh-nd",
                                  "reduce-power-grid"])
def test_barrier_footprint_covers_every_worker_write(name):
    # The barrier copies only each task's footprint: a worker's
    # write-back must land inside it, no cousin's footprint or A×A
    # accumulation may touch it, and a restore must rewind it exactly.
    build, options = COST_LAW_FIXTURES[name]
    st = analyze(build(), seed=0, **options).structure
    dist = np.random.default_rng(0).integers(1, 9, (st.n, st.n)).astype(float)
    np.fill_diagonal(dist, 0.0)
    barrier = _BarrierSnapshot(dist, st)
    for group in st.level_order():
        barrier.capture(group)
        masks = {}
        for s in group.tolist():
            masks[s] = np.zeros(dist.shape, dtype=bool)
            for rows, cols in barrier._footprint(s):
                masks[s][rows, cols] = True
        for s in masks:
            for c in masks:
                anc = st.ancestor_vertices(c)
                assert not masks[s][np.ix_(anc, anc)].any()
                assert s == c or not (masks[s] & masks[c]).any()
            before = dist.copy()
            eliminate_supernode(dist, st, s, defer_aa=True)
            assert not ((dist != before) & ~masks[s]).any()
            barrier.restore(s)
            assert np.array_equal(dist, before)


# ---------------------------------------------------------------------------
# Worker-side cooperative wall budget
# ---------------------------------------------------------------------------


def test_wall_budget_aborts_inside_worker_mid_level(grid_graph):
    plan = analyze(grid_graph, leaf_size=8)
    # Warm pool (fork cost must not eat the wall budget before any task
    # runs, or the abort would flakily move to the coordinator side),
    # built inside the fault context so the workers inherit the delays.
    spec = FaultSpec(seed=0, task_delay_rate=1.0, delay_seconds=0.7)
    with inject_faults(spec):
        with SharedPlanPool(plan, num_workers=2) as pool:
            with pytest.raises(BudgetExceededError) as info:
                parallel_superfw(
                    grid_graph,
                    backend="process",
                    pool=pool,
                    budget=SolveBudget(wall_seconds=2.0),
                )
    assert info.value.limit == "wall_seconds"
    assert info.value.progress["where"].startswith("worker:")


# ---------------------------------------------------------------------------
# Checkpoint/resume
# ---------------------------------------------------------------------------


def test_checkpoint_manager_roundtrip(tmp_path):
    mgr = CheckpointManager(directory=tmp_path)
    key = solve_key("plan", "abc", "levels")
    matrix = np.arange(9, dtype=np.float64).reshape(3, 3)
    meta = {"plan_id": "plan", "weights_sha": "abc"}
    path = mgr.path_for(key)
    mgr.write(key, matrix, groups_done=2, meta=meta)
    assert path.exists()
    loaded = mgr.load(key, expect=meta)
    assert loaded is not None
    got, groups_done = loaded
    assert np.array_equal(got, matrix)
    assert groups_done == 2
    # Any expectation mismatch must miss, not raise.
    assert mgr.load(key, expect={**meta, "plan_id": "other"}) is None
    # Corruption must miss too.
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert mgr.load(key, expect=meta) is None
    mgr.clear(key)
    assert not path.exists()
    mgr.clear(key)  # idempotent


def test_checkpoint_manager_coerce_and_cadence(tmp_path):
    assert CheckpointManager.coerce(None) is None
    assert CheckpointManager.coerce(False) is None
    mgr = CheckpointManager.coerce(str(tmp_path))
    assert mgr.directory == Path(str(tmp_path))
    assert CheckpointManager.coerce(mgr) is mgr
    every3 = CheckpointManager.coerce({"directory": tmp_path, "every": 3})
    assert [k for k in range(1, 7) if every3.due(k)] == [3, 6]
    with pytest.raises(TypeError, match="checkpoint"):
        CheckpointManager.coerce(42)


def test_weights_sha_distinguishes_instances(grid_graph, mesh_graph):
    a = grid_graph.to_dense_dist()
    b = mesh_graph.to_dense_dist()
    assert weights_sha(a) == weights_sha(a.copy())
    assert weights_sha(a) != weights_sha(b)
    assert solve_key("p", weights_sha(a), "levels") != solve_key(
        "p", weights_sha(a), "snodes"
    )


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_budget_abort_then_resume_is_bit_identical(backend, tmp_path):
    # The abort must land past a barrier, so the first etree level of
    # blocks must stay below the 30% budget (a 160-vertex mesh's plan
    # spends 39% of its ops there).
    mesh_graph = grid2d(20, 20, seed=0)
    plan = analyze(mesh_graph, seed=0)
    ops = superfw_snode_ops(plan.structure)
    assert ops[plan.structure.level_order()[0]].sum() < 0.3 * ops.sum()
    scratch = parallel_superfw(mesh_graph, backend=backend, num_workers=2)
    total_ops = scratch.ops.total
    with pytest.raises(BudgetExceededError):
        parallel_superfw(
            mesh_graph,
            backend=backend,
            num_workers=2,
            budget=SolveBudget(max_ops=total_ops * 0.3),
            checkpoint=tmp_path,
        )
    snapshots = list(tmp_path.glob("superfw-*.npz"))
    assert len(snapshots) == 1  # the abort left its last barrier behind
    resumed = parallel_superfw(
        mesh_graph,
        backend=backend,
        num_workers=2,
        checkpoint=tmp_path,
        resume=True,
    )
    assert resumed.meta["recovery"]["resumed_from_group"] >= 1
    assert np.array_equal(scratch.dist, resumed.dist)
    # Success must clear the snapshot (keep=False default)...
    assert list(tmp_path.glob("superfw-*.npz")) == []
    # ...so a further resume silently solves from scratch.
    again = parallel_superfw(
        mesh_graph, backend=backend, num_workers=2,
        checkpoint=tmp_path, resume=True,
    )
    assert "resumed_from_group" not in again.meta["recovery"]
    assert np.array_equal(scratch.dist, again.dist)


def test_resume_ignores_snapshot_of_other_weights(mesh_graph, tmp_path):
    scratch = parallel_superfw(mesh_graph, num_workers=2)
    with pytest.raises(BudgetExceededError):
        parallel_superfw(
            mesh_graph,
            num_workers=2,
            budget=SolveBudget(max_ops=scratch.ops.total * 0.3),
            checkpoint=tmp_path,
        )
    reweighted = mesh_graph.with_weights(mesh_graph.weights * 2.0)
    r = parallel_superfw(
        reweighted, num_workers=2, checkpoint=tmp_path, resume=True
    )
    assert "resumed_from_group" not in r.meta["recovery"]
    assert np.array_equal(parallel_superfw(reweighted, num_workers=2).dist, r.dist)


def test_resume_requires_checkpoint(grid_graph):
    with pytest.raises(ValueError, match="resume"):
        parallel_superfw(grid_graph, resume=True)


_KILLED_COORDINATOR_SCRIPT = """
import sys
from repro.core.parallel_superfw import parallel_superfw
from repro.graphs import generators
from repro.resilience.faults import FaultSpec, inject_faults

g = generators.grid2d(10, 10, seed=0)
# Injected per-task sleeps stretch the solve so the parent can observe a
# barrier checkpoint land and SIGKILL us mid-way.
with inject_faults(FaultSpec(seed=0, task_delay_rate=1.0, delay_seconds=0.1)):
    parallel_superfw(
        g, backend=sys.argv[2], num_workers=2,
        checkpoint={"directory": sys.argv[1], "keep": True},
    )
"""


def _live_children(pid: int) -> list[int]:
    """Non-zombie processes whose parent is ``pid`` (Linux ``/proc``)."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError):
            continue
        if int(ppid) == pid and state != "Z":
            kids.append(int(stat.parent.name))
    return kids


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def test_coordinator_sigkill_then_resume_matches_scratch(grid_graph, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    shm_dir = Path("/dev/shm")
    segments_before = set(shm_dir.glob("psm_*"))
    child = subprocess.Popen(
        [sys.executable, "-c", _KILLED_COORDINATOR_SCRIPT,
         str(tmp_path), "process"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not list(tmp_path.glob("superfw-*.npz")):
            if child.poll() is not None or time.monotonic() > deadline:
                pytest.fail("child finished or stalled before any checkpoint")
            time.sleep(0.005)
        # The child's pool workers (and its resource tracker), and the
        # segments it created: all must go away once it is killed.
        orphans = _live_children(child.pid)
        segments = set(shm_dir.glob("psm_*")) - segments_before
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL
    assert orphans and segments
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if not any(map(_alive, orphans)) and not any(p.exists() for p in segments):
            break
        time.sleep(0.05)
    assert [pid for pid in orphans if _alive(pid)] == []
    assert [p.name for p in segments if p.exists()] == []
    assert list(tmp_path.glob("superfw-*.npz"))
    resumed = parallel_superfw(
        grid_graph,
        backend="process",
        num_workers=2,
        checkpoint={"directory": tmp_path, "keep": True},
        resume=True,
    )
    assert resumed.meta["recovery"]["resumed_from_group"] >= 1
    assert np.array_equal(superfw(grid_graph).dist, resumed.dist)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_parse_chaos():
    from repro.cli import _parse_chaos

    assert _parse_chaos("worker_kill:0.05") == {"worker_kill_rate": 0.05}
    assert _parse_chaos("worker_hang:0.1:5,shm_detach:0.02") == {
        "worker_hang_rate": 0.1,
        "worker_hang_seconds": 5.0,
        "shm_detach_rate": 0.02,
    }
    with pytest.raises(SystemExit):
        _parse_chaos("coordinator_kill:0.5")
    with pytest.raises(SystemExit):
        _parse_chaos("worker_kill:lots")


def test_cli_unsupervised_worker_crash_exits_5(capsys):
    from repro.cli import EXIT_WORKER_CRASH, main

    code = main([
        "solve", "--generate", "grid2d:8",
        "--method", "parallel-superfw", "--backend", "process",
        "--workers", "2", "--no-supervise",
        "--chaos", "worker_kill:1.0", "--fault-seed", "0",
    ])
    assert code == EXIT_WORKER_CRASH == 5
    assert "error:" in capsys.readouterr().err


def test_cli_supervised_chaos_solve_succeeds(capsys):
    from repro.cli import main

    code = main([
        "solve", "--generate", "grid2d:8",
        "--method", "parallel-superfw", "--backend", "process",
        "--workers", "2",
        "--chaos", "worker_kill:1.0", "--fault-seed", "0",
    ])
    assert code == 0
    assert "method: parallel-superfw" in capsys.readouterr().out


def test_cli_checkpoint_resume_flags(tmp_path, capsys):
    from repro.cli import main

    ckpt = tmp_path / "ckpts"
    code = main([
        "solve", "--generate", "grid2d:8",
        "--method", "parallel-superfw",
        "--checkpoint", str(ckpt), "--resume",
        "--task-timeout", "30", "--max-pool-rebuilds", "3",
    ])
    assert code == 0
    capsys.readouterr()

"""Elimination-tree parallel SuperFW (paper §3.5).

Supernodes are processed level by level up the etree: all members of one
level are pairwise cousins, so their DiagUpdate, PanelUpdates, and the
``D×D`` / ``D×A`` / ``A×D`` outer regions touch disjoint parts of the
distance matrix and run concurrently.  Only the trailing ``A×A``
accumulations can collide between cousins; following the paper ("those
blocks are updated sequentially") they are serialized: in both backends
each task returns its ``A×A`` update matrix and the coordinator applies
it.  Any application order is legal because min-plus ``⊕`` is
associative and commutative — which also makes all three execution
modes (sequential, thread, process) produce *bit-identical* matrices.

The sweep itself is :func:`repro.core.superfw._sweep`, shared with the
sequential :func:`~repro.core.superfw.superfw`; this module supplies the
two parallel executors, each of which only implements ``run_group``:

``backend="thread"``
    A :class:`~concurrent.futures.ThreadPoolExecutor` over the in-process
    distance matrix.  NumPy releases the GIL inside its ufunc loops, so
    the blocked kernels do overlap.
``backend="process"``
    A :class:`SharedPlanPool` whose workers attach the permuted distance
    matrix through :mod:`multiprocessing.shared_memory` — true OS
    processes, no GIL.  Workers write their private D×D/D×A/A×D regions
    and panels directly into the shared segment and *return* the ``A×A``
    contribution for the coordinator to apply.  The pool initializer
    replicates fault injection into each worker and installs a fresh
    GEMM engine there, whose per-kernel counters come back with every
    task, so injected failures, retries, and engine counters behave
    identically to the other backends.

Recovery rests on **transactional tasks, and a barrier rewind only for
killed workers**.  A supernode task computes on private copies and
writes ``dist`` only after its last kernel, so a failed attempt leaves
the matrix untouched and every retry — in a worker, on a pool thread,
or the coordinator's final re-run — is bit-exact on every executor.
The one thing a transaction cannot cover is a worker SIGKILLed *during*
its write-back; the process backend is therefore **supervised** by
default (:mod:`repro.resilience.supervisor`): workers heartbeat a
shared-memory board, the coordinator watches for broken pools / missed
beats / stalled groups, and recovery rebuilds the pool against the same
shared segment, rewinds each unfinished task's footprint to a
:class:`_BarrierSnapshot` taken at the level barrier, and re-dispatches
it.  Once ``max_pool_rebuilds`` is spent, the remaining groups continue
in-process on the policy's ``escalate`` executor (the thread executor by
default) over the same matrix.  ``checkpoint=`` snapshots the matrix
at level barriers (:mod:`repro.resilience.checkpoint`) and
``resume=True`` restarts a killed solve from the last finished level.
Workers exit by themselves when their coordinator dies.

On a single core both backends demonstrate correctness of the schedule
rather than speedup; the wall-clock scaling figures are produced by the
work-depth simulator in :mod:`repro.parallel.scheduler`, replaying the
same task DAG.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from functools import partial
from multiprocessing import get_context, shared_memory
from typing import Any

import numpy as np

from repro.core.result import APSPResult
from repro.core.superfw import _collect, _Sequential, _sweep, run_task
from repro.graphs.graph import Graph
from repro.obs import Tracer, get_tracer, use_tracer
from repro.plan.plan import Plan
from repro.resilience import shm as shm_registry
from repro.resilience.budget import BudgetTracker, SolveBudget
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.errors import BudgetExceededError, WorkerCrashError
from repro.resilience.faults import export_fault_state, install_worker_faults
from repro.resilience.retry import DEFAULT_TASK_RETRY, RetryPolicy
from repro.resilience.supervisor import (
    HeartbeatBoard,
    Supervisor,
    SupervisorPolicy,
    coerce_policy,
    start_worker_watchdog,
)
from repro.semiring.engine import SemiringGemmEngine, get_engine, set_engine

#: Per-process state of a pool worker, populated by :func:`_process_init`.
_WORKER: dict[str, Any] = {}


def _process_init(
    shm_name: str,
    shape: tuple[int, int],
    dtype_str: str,
    structure,
    fault_state: tuple,
    interval: float,
    heartbeat: tuple | None = None,
) -> None:
    """Pool initializer: attach shared memory, install an engine + faults.

    Every worker starts a watchdog thread that exits the process once
    its coordinator is gone.  ``heartbeat`` (when supervision is on) is
    ``(board_name, slots, claim_lock)``: the worker claims a row of the
    shared liveness board, which the watchdog beats every ``interval``
    seconds.  The lock travels through ``initargs`` by fork inheritance
    — the executor pins the ``fork`` start method, so nothing here is
    pickled.
    """
    # Workers only *attach* to the coordinator-owned segment.  Under the
    # ``fork`` start method (which the executor pins) every process talks
    # to one shared resource tracker, where the duplicate registration is
    # a set no-op — the coordinator's unlink stays the sole destroyer.
    shm = shared_memory.SharedMemory(name=shm_name)
    install_worker_faults(*fault_state)
    # A fresh engine: the forked copy of the coordinator's carries its
    # counters (and possibly a lock held at fork time).
    set_engine(SemiringGemmEngine())
    _WORKER["shm"] = shm
    _WORKER["dist"] = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
    _WORKER["structure"] = structure
    board = slot = None
    if heartbeat is not None:
        board_name, slots, claim_lock = heartbeat
        board = HeartbeatBoard.attach(board_name, slots)
        slot = board.claim(claim_lock)
    start_worker_watchdog(interval, board, slot)


def _deadline_check(s: int, deadline: float | None) -> None:
    """Cooperative wall-clock abort inside a worker, between kernel ops."""
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceededError(
            f"solve wall-clock budget expired inside worker "
            f"{os.getpid()} during supernode {s}",
            limit="wall_seconds",
            progress={"where": f"worker:supernode {s}"},
        )


def _process_eliminate(
    s: int,
    retry: RetryPolicy,
    traced: bool = False,
    attempt_base: int = 0,
    deadline: float | None = None,
    mirror: bool = False,
):
    """Worker task: :func:`~repro.core.superfw.run_task` on the shared matrix.

    Returns ``(used_attempts, counter, aa_payload, engine_stats, events,
    metrics)``: the first three are ``run_task``'s result (the A×A
    contribution is deferred to the coordinator), ``engine_stats`` is
    the per-task engine delta (strategies *and* workspace hits/misses).
    When ``traced``, the worker records spans into a per-process
    :class:`~repro.obs.Tracer` and ships the drained ``events`` plus a
    ``metrics`` snapshot back for the coordinator to merge; ``traced``
    travels per task so a warm :class:`SharedPlanPool` can serve traced
    and untraced solves alike.  ``attempt_base`` offsets the attempt
    numbers fed to the fault injector: the supervisor bumps it per
    redispatch epoch so a deterministic chaos draw cannot kill the same
    task forever.  ``deadline`` (absolute ``time.monotonic()``,
    comparable across processes on Linux) enforces the solve's wall
    budget cooperatively inside the worker, between kernel ops.
    ``mirror`` is the solve's symmetry flag (see
    :func:`~repro.core.superfw.eliminate_supernode`).
    """
    engine = get_engine()
    before = engine.stats_snapshot()
    run = partial(
        run_task, _WORKER["dist"], s,
        structure=_WORKER["structure"], retry=retry,
        attempt_base=attempt_base, defer_aa=True,
        check=partial(_deadline_check, s, deadline), mirror=mirror,
    )
    events: list = []
    metrics = None
    if traced:
        tracer = _WORKER.get("tracer")
        if tracer is None:
            _WORKER["tracer"] = tracer = Tracer()
        with use_tracer(tracer):
            used, local, payload = run()
        events = [tuple(e) for e in tracer.drain()]
        metrics = tracer.metrics.snapshot()
        tracer.metrics.reset()
    else:
        used, local, payload = run()
    stats = engine.stats_dict(since=before)
    return used, local, payload, stats, events, metrics


class SharedPlanPool:
    """Persistent, rebuildable process pool bound to one plan's structure.

    The transient process backend pays the pool spin-up — forking
    workers and shipping the supernodal structure through the
    initializer — on *every* solve.  A :class:`SharedPlanPool` owns the
    shared-memory distance segment and the worker pool for the lifetime
    of a plan, so a session's repeated ``backend="process"`` solves ship
    the plan exactly once and reuse warm workers thereafter.  Pass it to
    :func:`parallel_superfw` via ``pool=`` (typically through
    :class:`repro.plan.session.APSPSession`).

    The pool is also the recovery substrate of the supervised backend:
    :meth:`rebuild` SIGKILLs any surviving workers, resets the heartbeat
    board, and forks a fresh executor *against the same shared segment*,
    so re-dispatched tasks keep operating on the half-finished matrix.
    Both shared segments (distance + heartbeat board) are registered
    with :mod:`repro.resilience.shm`, so even a coordinator that dies on
    an unhandled exception unlinks them at interpreter exit instead of
    leaking ``/dev/shm``.
    """

    def __init__(
        self,
        plan: Plan,
        *,
        num_workers: int = 4,
        dtype=np.float64,
        heartbeat: bool = True,
        heartbeat_interval: float = 0.2,
    ):
        self.plan = plan
        self.num_workers = max(1, num_workers)
        self.dtype = np.dtype(dtype)
        self.solves = 0
        self.rebuilds = 0
        self._closed = False
        self._needs_rebuild = False
        n = plan.n_reduced
        self._shm = shm_registry.create_tracked_segment(
            max(1, n * n * self.dtype.itemsize)
        )
        self.shared = np.ndarray((n, n), dtype=self.dtype, buffer=self._shm.buf)
        self.heartbeats = (
            HeartbeatBoard.create(self.num_workers) if heartbeat else None
        )
        self._hb_interval = float(heartbeat_interval)
        self._claim_lock = None
        self._pool = self._build_pool()

    def _build_pool(self) -> ProcessPoolExecutor:
        heartbeat = None
        if self.heartbeats is not None:
            # A fresh claim lock per pool, fork-inherited through initargs
            # unpickled: a worker SIGKILLed while claiming its row leaves
            # its pool's lock held for good, which would block every
            # worker of a rebuilt pool in its initializer.
            self._claim_lock = get_context("fork").Lock()
            heartbeat = (
                self.heartbeats.name, self.heartbeats.slots, self._claim_lock
            )
        n = self.plan.n_reduced
        return ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=get_context("fork"),
            initializer=_process_init,
            initargs=(
                self._shm.name,
                (n, n),
                self.dtype.str,
                self.plan.structure,
                export_fault_state(),
                self._hb_interval,
                heartbeat,
            ),
        )

    def submit(
        self,
        s: int,
        retry: RetryPolicy,
        traced: bool = False,
        attempt_base: int = 0,
        deadline: float | None = None,
        mirror: bool = False,
    ):
        """Submit supernode ``s`` to the warm workers."""
        return self._pool.submit(
            _process_eliminate, s, retry, traced, attempt_base, deadline, mirror
        )

    def stale_workers(self, timeout: float) -> list[int]:
        """Pids that have missed heartbeats (empty without a board)."""
        if self.heartbeats is None:
            return []
        return self.heartbeats.stale(timeout)

    def kill_workers(self) -> None:
        """SIGKILL every known worker (heartbeat board ∪ executor pids)."""
        pids = set(self.heartbeats.pids() if self.heartbeats else [])
        pids.update(getattr(self._pool, "_processes", None) or {})
        me = os.getpid()
        for pid in pids:
            if pid and pid != me:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass

    def terminate(self) -> None:
        """Kill workers and retire the executor, keeping the segment.

        Used before escalating to an in-process backend: a hung straggler
        must not keep scribbling on the shared matrix while the thread or
        sequential rerun operates on it.  The next :meth:`ensure_alive`
        lazily rebuilds, so a session-owned pool survives an exhausted
        solve.
        """
        self.kill_workers()
        try:
            self._pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        self._needs_rebuild = True

    def rebuild(self) -> None:
        """Replace dead/hung workers with a fresh pool on the same segment."""
        self.kill_workers()
        try:
            self._pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        if self.heartbeats is not None:
            self.heartbeats.reset()
        self._pool = self._build_pool()
        self._needs_rebuild = False
        self.rebuilds += 1

    def ensure_alive(self) -> None:
        """Rebuild first if a previous solve terminated the workers."""
        if self._closed:
            raise RuntimeError("SharedPlanPool is closed")
        if self._needs_rebuild:
            self.rebuild()

    def close(self) -> None:
        """Shut the workers down and release the shared segments."""
        if self._closed:
            return
        self._closed = True
        try:
            # A terminated pool's workers are already dead — don't wait.
            self._pool.shutdown(
                wait=not self._needs_rebuild, cancel_futures=True
            )
        except Exception:
            pass
        if self.heartbeats is not None:
            self.heartbeats.release()
        shm_registry.release_segment(self._shm)

    def __enter__(self) -> "SharedPlanPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


def parallel_superfw(
    graph: Graph,
    *,
    plan: Plan | None = None,
    num_workers: int = 4,
    backend: str = "thread",
    etree_parallel: bool = True,
    budget: SolveBudget | BudgetTracker | float | None = None,
    retry: RetryPolicy = DEFAULT_TASK_RETRY,
    pool: SharedPlanPool | None = None,
    supervise: SupervisorPolicy | bool | dict | float | None = True,
    checkpoint: CheckpointManager | str | os.PathLike | None = None,
    resume: bool = False,
    **plan_options,
) -> APSPResult:
    """APSP by level-scheduled supernodal Floyd-Warshall.

    Parameters
    ----------
    num_workers:
        Worker count for within-level elimination (threads or processes).
    backend:
        ``"thread"`` (in-process pool) or ``"process"`` (OS processes
        over a :mod:`multiprocessing.shared_memory` distance matrix; see
        the module docstring).  The two produce bit-identical results.
    etree_parallel:
        When false, supernodes are still dispatched through the pool but
        strictly one at a time — the "without eTree parallelism" variant
        of Fig. 8.
    budget:
        Optional solve budget checked per supernode task; a blown budget
        raises :class:`~repro.resilience.errors.BudgetExceededError`.
        Under ``backend="process"`` the wall-clock limit is *also*
        enforced cooperatively inside workers, between kernel ops.
    retry:
        Per-task retry policy.  A task that exhausts its pooled retries
        is re-run once on the coordinating thread before the solve gives
        up; tasks are transactional, so every re-run is bit-exact.
        Process workers' per-kernel engine counters are folded back
        into ``meta["engine"]``.
    pool:
        Optional :class:`SharedPlanPool` for the process backend.  When
        given, the solve reuses its warm workers and shared segment
        instead of spinning up (and tearing down) a transient pool —
        the plan defaults to the pool's and must match it.
    supervise:
        Supervision of the process backend (ignored by ``"thread"``).
        ``True`` (default) runs under the default
        :class:`~repro.resilience.supervisor.SupervisorPolicy`: crashed
        or heartbeat-dead workers trigger a pool rebuild plus redispatch
        of the unfinished level, continuing in-process (thread executor
        by default) once ``max_pool_rebuilds`` is spent.  Pass a policy /
        dict of policy fields / a number (``task_timeout`` seconds,
        arming hang detection), or ``False`` to run unsupervised — where
        a worker death still surfaces as a typed
        :class:`~repro.resilience.errors.WorkerCrashError` but nothing
        is recovered.
    checkpoint:
        Level-granular checkpointing: a directory path (or
        :class:`~repro.resilience.checkpoint.CheckpointManager`) where
        the permuted matrix + level cursor are snapshotted atomically
        after each completed barrier group, keyed by plan identity and
        a digest of the input weights.  A finished solve removes its
        snapshot unless the manager says ``keep=True``.
    resume:
        With ``checkpoint=``, look for a matching snapshot first and
        restart from its level cursor; the resumed result is
        bit-identical to an uninterrupted solve.  Missing or mismatched
        snapshots fall back to solving from scratch.
    """
    if backend not in ("thread", "process"):
        raise ValueError(f"unknown backend {backend!r}; use 'thread' or 'process'")
    if pool is not None:
        if backend != "process":
            raise ValueError("pool= requires backend='process'")
        if plan is None:
            plan = pool.plan
        elif plan is not pool.plan:
            raise ValueError("pool was built for a different plan")
    policy = coerce_policy(supervise) if backend == "process" else None
    ckpt = CheckpointManager.coerce(checkpoint)
    if resume and ckpt is None:
        raise ValueError("resume=True requires checkpoint=")
    workers = max(1, num_workers)
    if backend == "process":
        make_executor = partial(
            _Process, workers=workers, pool=pool, policy=policy,
        )
    else:
        make_executor = lambda dist, task, **_: _Threaded(dist, task, workers)
    return _sweep(
        graph, plan, plan_options, make_executor,
        name="parallel-superfw",
        backend=backend,
        by_level=etree_parallel,
        dtype=np.float64,
        budget=budget,
        retry=retry,
        checkpoint=ckpt,
        resume=resume,
        meta={
            "pooled": pool is not None,
            "backend": backend,
            "num_workers": workers,
            "etree_parallel": etree_parallel,
            "supervised": policy is not None,
            "checkpointed": ckpt is not None,
        },
    )


def _collect_futures(futures, apply):
    """:func:`~repro.core.superfw._collect` over ``(s, future)`` pairs.

    Waits for every future before returning or raising, so no task of
    an aborted group still writes the matrix afterwards.
    """
    try:
        return _collect(((s, f.result) for s, f in futures), apply)
    finally:
        wait([f for _, f in futures])


class _Threaded(_Sequential):
    """Pool-thread executor: a group's cousins run concurrently.

    Results are applied on the coordinating thread as the futures
    drain, deferred A×A payloads included: the A×A region is the one
    cousins share, and no running cousin reads another's.
    """

    def __init__(self, dist: np.ndarray, task, workers: int) -> None:
        super().__init__(dist, partial(task, defer_aa=True))
        self.pool = ThreadPoolExecutor(max_workers=workers)

    def run_group(self, group, apply):
        futures = [(s, self.pool.submit(self.task, self.dist, s)) for s in group]
        return _collect_futures(futures, apply)

    def close(self) -> None:
        self.pool.shutdown(wait=True)


class _BarrierSnapshot:
    """Level-start copy of each task's write footprint, for killed workers only.

    Tasks are transactional, so a task that *fails* writes nothing and
    needs no undo.  A worker SIGKILLed during its write-back is the one
    exception: it can leave some of its blocks written and others not,
    and re-running over its own half-relaxed strips can round one ULP
    below the undisturbed answer.  The supervised executor therefore
    copies, at each level barrier, every task's footprint — its
    subtree's rows against its subtree and ``A(s)`` columns, and the
    ``A(s)`` rows against its subtree columns, everything
    ``eliminate_supernode`` reads or writes but the deferred ``A×A``
    region — and restores it before any re-dispatch or escalation.  No
    cousin writes inside it (cousin subtrees are disjoint, and no
    cousin's ancestors lie in this subtree), and the coordinator's
    ``A×A`` accumulations lie outside it, so a restore never disturbs
    finished or still-running siblings.

    Costs a copy of each level's footprints (on the gate's grids about
    2.5 ``n²`` per solve, against one ``n²`` per level for a whole-matrix
    copy) — supervised process solves only.
    """

    def __init__(self, shared: np.ndarray, structure) -> None:
        self.shared = shared
        self.structure = structure
        self.saved: dict[int, list] = {}

    def _footprint(self, s: int) -> list[tuple[slice, slice]]:
        """Row and column slices covering ``s``'s footprint, ``A×A`` aside."""
        lo, hi = self.structure.col_range(s)
        sub = [(a, b) for _, a, b in self.structure.row_runs(s).desc]
        if sub and sub[-1][1] == lo:
            sub[-1] = (sub[-1][0], hi)
        else:
            sub.append((lo, hi))
        sub = [slice(a, b) for a, b in sub]
        anc = [slice(a, b) for _, a, b in self.structure.row_runs(s).anc]
        return ([(r, c) for r in sub for c in sub + anc]
                + [(r, c) for r in anc for c in sub])

    def capture(self, group) -> None:
        """Record the barrier state of the footprints of ``group``'s tasks."""
        self.saved = {
            int(s): [(r, c, self.shared[r, c].copy())
                     for r, c in self._footprint(int(s))]
            for s in group
        }

    def restore(self, s: int) -> None:
        """Rewind supernode ``s``'s footprint to the level barrier.

        Exactly an undo of any partial first attempt: every block
        ``eliminate_supernode`` writes in a worker lies inside it.
        """
        for r, c, block in self.saved[s]:
            self.shared[r, c] = block


class _Process(_Sequential):
    """Shared-memory process-pool executor.

    The working matrix is the pool's shared segment, written by workers
    through :func:`_process_eliminate`; completed tasks' deferred A×A
    payloads, counters, engine stats and trace events come back to the
    coordinator.  With a persistent ``pool`` its warm workers and
    segment are reused; otherwise a transient :class:`SharedPlanPool`
    is built here and closed by :meth:`close`.  Under a policy, each
    group runs through the :class:`Supervisor`, with a
    :class:`_BarrierSnapshot` to rewind killed tasks before they are
    re-dispatched or escalated.
    """

    def __init__(
        self, dist, task, *, plan, eng, tracker, recovery, retry, mirror,
        workers, pool, policy,
    ) -> None:
        self.transient = pool is None
        if pool is None:
            pool = SharedPlanPool(
                plan,
                num_workers=workers,
                dtype=dist.dtype,
                heartbeat_interval=(
                    policy.heartbeat_interval if policy is not None else 0.2
                ),
            )
        else:
            pool.ensure_alive()
            pool.solves += 1
        pool.shared[:] = dist
        super().__init__(pool.shared, task)
        self.pool = pool
        self.workers = workers
        self.eng = eng
        self.retry = retry
        self.mirror = mirror
        self.recovery = recovery
        self.policy = policy
        self.supervisor = self.barrier = None
        if policy is not None:
            self.supervisor = Supervisor(policy, pool, recovery=recovery)
            self.barrier = _BarrierSnapshot(pool.shared, plan.structure)
        self.tracker = tracker
        self.wall = tracker.budget.wall_seconds if tracker is not None else None

    def _submit(self, s: int, attempt_base: int = 0):
        if attempt_base and self.barrier is not None:
            # Re-dispatch after a recovery: the first attempt may have
            # died mid write-back, so rewind this task's strips to the
            # level barrier before the new attempt reads them.
            self.barrier.restore(s)
        deadline = None
        if self.wall is not None:
            deadline = time.monotonic() + max(0.0, self.wall - self.tracker.elapsed())
        return self.pool.submit(
            s, self.retry, get_tracer().enabled,
            attempt_base=attempt_base, deadline=deadline, mirror=self.mirror,
        )

    def _on_result(self, apply, s: int, value) -> None:
        used, local, payload, stats, events, metrics = value
        self.eng.merge_stats(stats["strategies"], workspace=stats["workspace"])
        tracer = get_tracer()
        if events:
            tracer.merge(events)
        if metrics:
            tracer.metrics.merge_snapshot(metrics)
        apply(s, (used, local, payload))

    def run_group(self, group, apply):
        on_result = partial(self._on_result, apply)
        if self.supervisor is not None:
            self.barrier.capture(group)
            return self.supervisor.run_group(
                group, submit=self._submit, on_result=on_result
            )
        try:
            return _collect_futures([(s, self._submit(s)) for s in group], on_result)
        except BrokenExecutor as exc:
            self.pool.terminate()
            raise WorkerCrashError(
                "a process-pool worker died with supervision disabled "
                "(supervise=False); re-run supervised for automatic recovery",
                cause="crash",
            ) from exc

    def escalate(self, exc: WorkerCrashError) -> _Sequential:
        """Continue the solve in-process once supervision gave up.

        The supervisor terminated the pool before raising, so nothing
        writes the shared matrix while the unfinished tasks' strips
        rewind to the level barrier; the successor then re-runs them and
        every later group on the same matrix.
        """
        to = self.policy.escalate if self.policy is not None else None
        if to is None:
            raise exc
        with get_tracer().span(
            "resilience.recover.escalate", to=to, cause=exc.cause
        ):
            for s in exc.pending:
                self.barrier.restore(int(s))
        self.recovery.setdefault("escalations", []).append(to)
        if to == "thread":
            return _Threaded(self.dist, self.task, self.workers)
        return _Sequential(self.dist, self.task, self.barrier.structure)

    def close(self) -> None:
        if self.transient:
            self.pool.close()

"""Heartbeat supervision and crash recovery for the process backend.

``backend="process"`` runs supernode eliminations in OS workers over a
shared-memory distance matrix.  Left alone, a SIGKILL'd worker (OOM
killer, operator error, chaos testing) surfaces as a raw
``BrokenProcessPoolError`` that aborts the whole solve; a *hung* worker
stalls it forever.  This module closes both holes:

* :class:`HeartbeatBoard` — a tiny shared-memory table of
  ``[pid, last-beat]`` rows.  Every pool worker claims a row in its
  initializer and beats it from a daemon thread, so the coordinator can
  notice a silently dead worker within ``heartbeat_timeout`` even when
  no future is outstanding to carry the bad news.  ``CLOCK_MONOTONIC``
  is system-wide on Linux, so worker beats and coordinator reads share
  a clock.
* :class:`Supervisor` — drives one *barrier group* (an elimination
  level) of futures to completion.  Worker death (broken pool or missed
  heartbeats) and per-group progress deadlines trigger recovery: kill
  any stragglers, rebuild the pool against the *same* shared segment,
  and re-dispatch only the unfinished supernodes of the current group.
  Tasks are transactional (a failed attempt writes nothing), and the
  process executor rewinds a killed task's strips to the level barrier
  before re-dispatching it — a worker can die mid write-back — so
  every recovery is *bit-identical* to an undisturbed run.
* :class:`SupervisorPolicy` — tunables, including the
  ``max_pool_rebuilds`` budget after which the supervisor gives up with
  a typed :class:`~repro.resilience.errors.WorkerCrashError` /
  :class:`~repro.resilience.errors.SolveTimeoutError`, and the
  ``escalate`` executor (thread or sequential) the solve then continues
  on in-process.

Observability: rebuilds emit ``resilience.recover.rebuild`` /
``resilience.recover.redispatch`` spans and bump the
``supervisor.pool_rebuilds`` / ``supervisor.heartbeat_missed`` /
``supervisor.task_timeouts`` counters.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.obs import get_tracer
from repro.resilience import shm as shm_registry
from repro.resilience.errors import (
    BudgetExceededError,
    ReproError,
    SolveTimeoutError,
    WorkerCrashError,
)

#: Attempt-number stride between redispatch epochs.  Fault-injection
#: draws hash ``(supernode, attempt)``, so re-dispatched tasks must use
#: attempt numbers no earlier run saw — otherwise a deterministic
#: ``worker_kill`` draw would fire identically forever and no rebuild
#: budget could save the solve.  Any stride larger than a plausible
#: per-task retry count works.
EPOCH_STRIDE = 1000


@dataclass(frozen=True)
class SupervisorPolicy:
    """Tunables of the supervised process backend.

    Attributes
    ----------
    task_timeout:
        Progress deadline in seconds: if no task of the current group
        completes for this long, the group's workers are presumed hung,
        killed, and the group re-dispatched.  ``None`` disables hang
        detection (crash detection stays on).
    heartbeat_interval:
        Period of each worker's beat thread.
    heartbeat_timeout:
        A claimed worker whose last beat is older than this is presumed
        dead.  Beats come from a daemon thread (NumPy kernels release
        the GIL), so the default tolerates heavy compute but not death.
    poll_interval:
        Coordinator wait quantum between liveness checks.
    max_pool_rebuilds:
        Recovery budget per solve; one more failure after the last
        rebuild raises :class:`WorkerCrashError` (or
        :class:`SolveTimeoutError` for deadline exhaustion).
    escalate:
        In-process executor the solve continues on once the rebuild
        budget is exhausted: ``"thread"`` or ``"sequential"``.  It never
        gives up with a worker crash, so it finishes the solve.  ``None``
        means fail fast with the typed error.
    """

    task_timeout: float | None = None
    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 10.0
    poll_interval: float = 0.05
    max_pool_rebuilds: int = 2
    escalate: str | None = "thread"

    def __post_init__(self) -> None:
        if self.escalate not in ("thread", "sequential", None):
            raise ValueError(
                f"unknown escalation backend {self.escalate!r}; "
                "use 'thread', 'sequential' or None"
            )


def coerce_policy(value) -> SupervisorPolicy | None:
    """Normalize a ``supervise=`` argument into a policy (or ``None``).

    ``True`` → default policy; ``False``/``None`` → unsupervised; a
    number → default policy with that ``task_timeout``; a dict → policy
    fields; a :class:`SupervisorPolicy` passes through.
    """
    if value is None or value is False:
        return None
    if value is True:
        return SupervisorPolicy()
    if isinstance(value, SupervisorPolicy):
        return value
    if isinstance(value, dict):
        return SupervisorPolicy(**value)
    if isinstance(value, (int, float)):
        return SupervisorPolicy(task_timeout=float(value))
    raise TypeError(
        "supervise must be None, a bool, seconds, a dict of "
        "SupervisorPolicy fields, or a SupervisorPolicy"
    )


class HeartbeatBoard:
    """Shared-memory liveness table: one ``[pid, last-beat]`` row per slot.

    The coordinator creates (and owns) the segment; each pool worker
    claims the first free row under a fork-inherited lock and beats it
    from a daemon thread.  Rows are plain float64 pairs — a pid fits a
    double exactly, and torn reads are harmless (staleness is re-checked
    on the next poll).
    """

    def __init__(self, seg: shared_memory.SharedMemory, slots: int) -> None:
        self._seg = seg
        self.slots = int(slots)
        self.rows = np.ndarray((self.slots, 2), dtype=np.float64, buffer=seg.buf)

    @classmethod
    def create(cls, slots: int) -> "HeartbeatBoard":
        """Coordinator side: new zeroed board in a tracked segment."""
        seg = shm_registry.create_tracked_segment(int(slots) * 2 * 8)
        board = cls(seg, slots)
        board.rows[:] = 0.0
        return board

    @classmethod
    def attach(cls, name: str, slots: int) -> "HeartbeatBoard":
        """Worker side: map an existing board (never unlinks it)."""
        return cls(shared_memory.SharedMemory(name=name), slots)

    @property
    def name(self) -> str:
        return self._seg.name

    def claim(self, lock) -> int:
        """Claim the first free row for this process; returns the slot."""
        pid = float(os.getpid())
        with lock:
            for slot in range(self.slots):
                if self.rows[slot, 0] == 0.0:
                    self.rows[slot, 1] = time.monotonic()
                    self.rows[slot, 0] = pid
                    return slot
        raise RuntimeError("heartbeat board full; was reset() skipped?")

    def beat(self, slot: int) -> None:
        """Refresh this worker's liveness timestamp."""
        self.rows[slot, 1] = time.monotonic()

    def reset(self) -> None:
        """Free every row (coordinator, before a pool (re)build)."""
        self.rows[:] = 0.0

    def pids(self) -> list[int]:
        """Pids currently claiming a row."""
        return [int(pid) for pid in self.rows[:, 0] if pid > 0]

    def stale(self, timeout: float) -> list[int]:
        """Pids whose last beat is older than ``timeout`` seconds."""
        now = time.monotonic()
        return [
            int(pid)
            for pid, beat in self.rows
            if pid > 0 and now - beat > timeout
        ]

    def release(self) -> None:
        """Owner-side close + unlink (idempotent)."""
        shm_registry.release_segment(self._seg)

    def close(self) -> None:
        """Worker-side detach (never unlinks)."""
        try:
            self._seg.close()
        except (OSError, BufferError):
            pass


def start_worker_watchdog(
    interval: float, board: HeartbeatBoard | None = None, slot: int | None = None
) -> threading.Thread:
    """Beat ``board[slot]`` every ``interval`` seconds; exit when orphaned.

    Daemon thread started in every pool worker, supervised or not.  It
    needs no shutdown protocol — a worker that exits (or is killed)
    simply stops beating, which is exactly the signal the coordinator
    watches for.  When the coordinator itself dies, the worker is
    re-parented and exits at once: nothing will ever submit to it
    again, and while it lives the multiprocessing resource tracker
    keeps the coordinator's shared-memory segments linked.
    """
    parent = os.getppid()

    def loop() -> None:
        while os.getppid() == parent:
            if board is not None:
                board.beat(slot)
            time.sleep(interval)
        os._exit(0)

    thread = threading.Thread(target=loop, name="repro-worker-watchdog", daemon=True)
    thread.start()
    return thread


class Supervisor:
    """Drives barrier groups of pool futures with crash/hang recovery.

    The pool object must provide ``rebuild()`` (kill stragglers, fresh
    workers, same shared segment), ``terminate()`` (kill workers, no
    restart — called before escalation so nothing scribbles on shared
    memory), and ``stale_workers(timeout)`` (missed-heartbeat pids; may
    return ``[]`` when heartbeats are unavailable).
    :class:`repro.core.parallel_superfw.SharedPlanPool` implements all
    three.

    One supervisor instance spans a whole solve, so the rebuild budget
    is global across groups rather than per level.
    """

    def __init__(self, policy: SupervisorPolicy, pool, *, recovery: dict | None = None):
        self.policy = policy
        self.pool = pool
        self.recovery = recovery if recovery is not None else {}
        self.rebuilds = 0
        self.epoch = 0

    def attempt_base(self) -> int:
        """Attempt-number offset for the current redispatch epoch."""
        return self.epoch * EPOCH_STRIDE

    def run_group(self, snodes, *, submit, on_result) -> list[tuple[int, ReproError]]:
        """Run one barrier group to completion, recovering as needed.

        Parameters
        ----------
        submit:
            ``submit(s, attempt_base) -> Future`` dispatching supernode
            ``s`` to the pool.
        on_result:
            ``on_result(s, value)`` applying a completed task's effects
            at the coordinator (A×A payload, counters, budget charge).

        Returns the ``(supernode, error)`` soft failures — tasks that
        exhausted their in-worker retries with a typed error — for the
        caller's sequential recovery, mirroring the unsupervised drain.
        Budget aborts raised by workers are re-raised only after the
        group drains, so sibling results are not thrown away.
        """
        policy = self.policy
        tracer = get_tracer()
        failures: list[tuple[int, ReproError]] = []
        budget_error: BudgetExceededError | None = None
        pending = self._dispatch(list(snodes), submit, failures)
        last_progress = time.monotonic()
        while pending:
            done, _ = wait(
                set(pending), timeout=policy.poll_interval,
                return_when=FIRST_COMPLETED,
            )
            if done:
                broken: list[int] = []
                for future in done:
                    s = pending.pop(future)
                    try:
                        value = future.result()
                    except BrokenExecutor:
                        # One worker death breaks every sibling future;
                        # collect them all, then recover once.
                        broken.append(s)
                    except BudgetExceededError as exc:
                        budget_error = exc
                    except ReproError as exc:
                        failures.append((s, exc))
                    else:
                        on_result(s, value)
                        last_progress = time.monotonic()
                if broken:
                    pending = self._recover(
                        "crash", broken + list(pending.values()),
                        submit, failures,
                    )
                    last_progress = time.monotonic()
                continue
            # Idle poll: no future finished this quantum.  Look for
            # silent deaths first (a worker killed while its task queue
            # entry is un-picked breaks no future), then stalled work.
            stale = self.pool.stale_workers(policy.heartbeat_timeout)
            if stale:
                if tracer.enabled:
                    tracer.metrics.inc("supervisor.heartbeat_missed", len(stale))
                self.recovery["heartbeat_missed"] = (
                    self.recovery.get("heartbeat_missed", 0) + len(stale)
                )
                pending = self._recover(
                    "heartbeat", list(pending.values()), submit, failures
                )
                last_progress = time.monotonic()
            elif (
                policy.task_timeout is not None
                and time.monotonic() - last_progress > policy.task_timeout
            ):
                if tracer.enabled:
                    tracer.metrics.inc("supervisor.task_timeouts")
                pending = self._recover(
                    "timeout", list(pending.values()), submit, failures
                )
                last_progress = time.monotonic()
        if budget_error is not None:
            raise budget_error
        return failures

    def _dispatch(self, snodes, submit, failures) -> dict:
        """Submit ``snodes``, recovering if the pool breaks mid-submit.

        A submission onto a just-broken executor raises synchronously;
        that costs a rebuild and the *whole* set is re-dispatched —
        results of any already-submitted siblings are dropped, which is
        safe: the driver's ``submit`` rewinds each re-dispatched task's
        strips to the level barrier (bit-exact re-runs), and the re-run
        returns the A×A payload again.
        """
        queue = sorted({int(s) for s in snodes})
        while True:
            try:
                return {submit(s, self.attempt_base()): s for s in queue}
            except BrokenExecutor:
                self._rebuild("crash", queue, failures)

    def _recover(self, cause: str, snodes, submit, failures) -> dict:
        """Rebuild the pool and re-dispatch ``snodes``; or give up typed."""
        remaining = sorted({int(s) for s in snodes})
        self._rebuild(cause, remaining, failures)
        tracer = get_tracer()
        with tracer.span("resilience.recover.redispatch", tasks=len(remaining)):
            return self._dispatch(remaining, submit, failures)

    def _rebuild(self, cause: str, remaining, failures) -> None:
        """Spend one unit of the rebuild budget (or give up typed)."""
        if self.rebuilds >= self.policy.max_pool_rebuilds:
            # Soft failures collected so far were headed for sequential
            # recovery that will now never run — hand them to the
            # escalation chain along with the in-flight tasks.
            unfinished = sorted(
                set(int(s) for s in remaining) | {int(s) for s, _ in failures}
            )
            self._give_up(cause, unfinished)
        self.rebuilds += 1
        self.epoch += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.inc("supervisor.pool_rebuilds")
        self.recovery["pool_rebuilds"] = self.rebuilds
        self.recovery.setdefault("recoveries", []).append(
            {"cause": cause, "snodes": sorted(int(s) for s in remaining)}
        )
        with tracer.span(
            "resilience.recover.rebuild", cause=cause, rebuild=self.rebuilds
        ):
            self.pool.rebuild()

    def _give_up(self, cause: str, remaining: list[int]) -> None:
        # Stragglers of a hung pool must not keep writing shared memory
        # while an escalated backend reruns their tasks on it.
        self.pool.terminate()
        detail = (
            f"after {self.rebuilds} pool rebuild(s); "
            f"{len(remaining)} task(s) unfinished"
        )
        if cause == "timeout":
            raise SolveTimeoutError(
                f"supernode tasks kept exceeding the "
                f"{self.policy.task_timeout:g}s deadline {detail}",
                rebuilds=self.rebuilds,
                pending=remaining,
            )
        reason = (
            "workers kept missing heartbeats"
            if cause == "heartbeat"
            else "worker processes kept dying"
        )
        raise WorkerCrashError(
            f"{reason} {detail}",
            cause=cause,
            rebuilds=self.rebuilds,
            pending=remaining,
        )

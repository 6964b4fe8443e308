"""Deterministic, seedable fault injection for testing recovery paths.

The injector hooks two layers of the solver stack:

* **kernel sites** — each call to one of the four blocked kernels in
  :mod:`repro.semiring.kernels` may raise :class:`KernelFaultError` or
  corrupt one entry of its output block with NaN;
* **task sites** — each per-supernode elimination attempt, on every
  executor, may raise :class:`TaskFailedError` or sleep for a
  configurable delay before running;
* **process sites** (the chaos harness) — inside a pool worker an
  elimination attempt may SIGKILL its own process (``worker_kill``),
  hang for ``worker_hang_seconds`` (``worker_hang``), or die abruptly
  as if its shared-memory mapping vanished (``shm_detach`` →
  ``os._exit``).  These fire **only in worker processes**: the exported
  spec records the coordinator's pid (``origin_pid``), and a draw is
  honored only when ``os.getpid()`` differs — so chaos can never kill
  the coordinating process or a threaded backend.

Decisions are *stateless and deterministic*: each site draws a
pseudo-random number from a stable hash of ``(seed, site, key...)``, so a
given ``(seed, supernode, attempt)`` always fails (or not) identically —
regardless of thread interleaving, process restarts, or
``PYTHONHASHSEED``.  Retries pass a fresh ``attempt`` index and therefore
get an independent draw, which is what makes injected failures
*recoverable* at realistic rates.

The default seed comes from the ``REPRO_FAULT_SEED`` environment variable
(CI runs a small seed matrix), falling back to 0.

Usage::

    from repro.resilience.faults import FaultSpec, inject_faults

    with inject_faults(FaultSpec(seed=7, task_failure_rate=0.2)):
        result = apsp(g, method="auto")
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from repro.resilience.errors import KernelFaultError, TaskFailedError

_ENV_SEED = "REPRO_FAULT_SEED"


def default_fault_seed() -> int:
    """Seed from ``REPRO_FAULT_SEED`` (0 when unset or malformed)."""
    try:
        return int(os.environ.get(_ENV_SEED, "0"))
    except ValueError:
        return 0


@dataclass(frozen=True)
class FaultSpec:
    """Configuration of the fault injector (all rates in ``[0, 1]``).

    Attributes
    ----------
    seed:
        Base seed for the stateless per-site draws; ``None`` reads
        ``REPRO_FAULT_SEED``.
    kernel_error_rate:
        Probability that a kernel call raises :class:`KernelFaultError`.
    kernel_corruption_rate:
        Probability that a kernel call silently writes a NaN into its
        output block (caught downstream only by certificate checking).
    task_failure_rate:
        Probability that one supernode-elimination attempt raises
        :class:`TaskFailedError`.
    task_delay_rate / delay_seconds:
        Probability / duration of an injected sleep before a task runs
        (exercises wall-clock budgets).
    worker_kill_rate:
        Probability that a pool worker SIGKILLs itself at the start of
        an elimination attempt (chaos harness; worker processes only).
    worker_hang_rate / worker_hang_seconds:
        Probability / duration of a worker hanging inside a task
        (exercises heartbeats and per-task deadlines).
    shm_detach_rate:
        Probability that a worker dies abruptly via ``os._exit`` as if
        its shared-memory mapping disappeared.
    origin_pid:
        Set by :func:`export_fault_state`: the coordinator's pid.  The
        worker-process sites above only fire when the current pid
        differs, so chaos is confined to pool workers.
    """

    seed: int | None = None
    kernel_error_rate: float = 0.0
    kernel_corruption_rate: float = 0.0
    task_failure_rate: float = 0.0
    task_delay_rate: float = 0.0
    delay_seconds: float = 0.0
    worker_kill_rate: float = 0.0
    worker_hang_rate: float = 0.0
    worker_hang_seconds: float = 30.0
    shm_detach_rate: float = 0.0
    origin_pid: int | None = None

    def chaos_rates(self) -> dict[str, float]:
        """The process-level (chaos) rates, by site name."""
        return {
            "worker_kill": self.worker_kill_rate,
            "worker_hang": self.worker_hang_rate,
            "shm_detach": self.shm_detach_rate,
        }

    def resolved_seed(self) -> int:
        """The effective seed (field, or the environment default)."""
        return default_fault_seed() if self.seed is None else int(self.seed)


def _draw(seed: int, *key) -> float:
    """Uniform [0, 1) from a stable hash of ``(seed, *key)``."""
    payload = repr((seed,) + key).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass
class FaultInjector:
    """Active fault source; install with :func:`inject_faults`."""

    spec: FaultSpec
    stats: dict[str, int] = field(default_factory=dict)
    _seed: int = field(init=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    #: Per-thread kernel-call counter: concurrent tasks never share one.
    _calls: threading.local = field(default_factory=threading.local, repr=False)

    def __post_init__(self) -> None:
        self._seed = self.spec.resolved_seed()

    def _count(self, what: str) -> None:
        with self._lock:
            self.stats[what] = self.stats.get(what, 0) + 1

    def _next_kernel_call(self) -> int:
        call = getattr(self._calls, "n", 0) + 1
        self._calls.n = call
        return call

    def reseed_kernel_calls(self, *key) -> None:
        """Set this thread's kernel-call counter to a per-task epoch.

        Every executor calls this before each elimination attempt: the
        counter becomes a stable hash of ``(supernode, attempt)``
        instead of a scheduling-dependent running total, so kernel-fault
        draws inside a task are reproducible regardless of which thread
        or worker ran what before it.
        """
        self._calls.n = int(_draw(self._seed, "kernel-epoch", *key) * 2**31)

    # ------------------------------------------------------------------
    # Hook entry points
    # ------------------------------------------------------------------
    def on_kernel(self, site: str, block: np.ndarray) -> None:
        """Called by every kernel after computing its in-place update."""
        spec = self.spec
        if not (spec.kernel_error_rate or spec.kernel_corruption_rate):
            return
        call = self._next_kernel_call()
        if _draw(self._seed, "kernel-error", site, call) < spec.kernel_error_rate:
            self._count("kernel_errors")
            raise KernelFaultError(
                f"injected kernel fault at {site!r} (call {call})", site=site
            )
        if (
            block.size
            and _draw(self._seed, "kernel-corrupt", site, call)
            < spec.kernel_corruption_rate
        ):
            self._count("kernel_corruptions")
            # .flat writes through non-contiguous views (reshape would copy).
            where = int(_draw(self._seed, "corrupt-where", site, call) * block.size)
            block.flat[where] = np.nan

    def on_task(self, supernode: int, attempt: int) -> None:
        """Called at the start of each supernode-elimination attempt."""
        spec = self.spec
        if spec.origin_pid is not None and os.getpid() != spec.origin_pid:
            # Process-level chaos sites: only ever fire inside a pool
            # worker (never the coordinator — origin_pid pins it).
            if spec.worker_kill_rate and _draw(
                self._seed, "worker-kill", supernode, attempt
            ) < spec.worker_kill_rate:
                self._count("worker_kills")
                os.kill(os.getpid(), signal.SIGKILL)
            if spec.shm_detach_rate and _draw(
                self._seed, "shm-detach", supernode, attempt
            ) < spec.shm_detach_rate:
                self._count("shm_detaches")
                # Abrupt death without signal: mimics the mapping (or the
                # worker's memory) vanishing under it.  No atexit, no
                # cleanup — exactly what the supervisor must survive.
                os._exit(70)
            if spec.worker_hang_rate and spec.worker_hang_seconds > 0 and _draw(
                self._seed, "worker-hang", supernode, attempt
            ) < spec.worker_hang_rate:
                self._count("worker_hangs")
                time.sleep(spec.worker_hang_seconds)
        if spec.task_delay_rate and spec.delay_seconds > 0 and _draw(
            self._seed, "task-delay", supernode, attempt
        ) < spec.task_delay_rate:
            self._count("task_delays")
            time.sleep(spec.delay_seconds)
        if _draw(self._seed, "task-fail", supernode, attempt) < spec.task_failure_rate:
            self._count("task_failures")
            raise TaskFailedError(
                f"injected task failure at supernode {supernode} "
                f"(attempt {attempt})",
                supernode=supernode,
                attempts=attempt,
            )


_ACTIVE: FaultInjector | None = None
_ACTIVE_LOCK = threading.Lock()


def active_injector() -> FaultInjector | None:
    """The currently installed injector (``None`` almost always)."""
    return _ACTIVE


@contextmanager
def inject_faults(spec: FaultSpec | None = None, **kwargs):
    """Install a :class:`FaultInjector` for the duration of the block.

    Accepts a prebuilt :class:`FaultSpec` or its keyword fields directly.
    Yields the injector so tests can inspect ``injector.stats``.
    """
    if spec is None:
        spec = FaultSpec(**kwargs)
    elif kwargs:
        raise ValueError("pass either a FaultSpec or keyword fields, not both")
    global _ACTIVE
    injector = FaultInjector(spec)
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = injector
    try:
        yield injector
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = previous


def export_fault_state() -> tuple[FaultSpec | None, str | None]:
    """Picklable fault state for a worker-process initializer.

    Returns ``(spec, env_seed)``: the active injector's spec with its seed
    *resolved* (so the worker does not depend on its own environment) and
    ``origin_pid`` stamped to this process's pid (arming the
    worker-process chaos sites in the receiving worker), and the
    coordinator's raw ``REPRO_FAULT_SEED`` value (propagated even when
    no injector is installed, so a solve started inside a worker sees the
    same default seed).
    """
    injector = _ACTIVE
    spec = None
    if injector is not None:
        origin = injector.spec.origin_pid
        spec = replace(
            injector.spec,
            seed=injector._seed,
            origin_pid=os.getpid() if origin is None else origin,
        )
    return spec, os.environ.get(_ENV_SEED)


def install_worker_faults(spec: FaultSpec | None, env_seed: str | None) -> None:
    """Install exported fault state in a worker process.

    Counterpart of :func:`export_fault_state`; called from the process
    pool's initializer.  Unlike :func:`inject_faults` this is not scoped —
    the injector lives for the worker's lifetime, mirroring how the
    coordinator's ``with inject_faults(...)`` block outlives the pool.
    """
    global _ACTIVE
    if env_seed is None:
        os.environ.pop(_ENV_SEED, None)
    else:
        os.environ[_ENV_SEED] = env_seed
    with _ACTIVE_LOCK:
        _ACTIVE = FaultInjector(spec) if spec is not None else None


def task_kernel_epoch(supernode: int, attempt: int) -> None:
    """Reseed kernel-fault numbering for a task; no-op without injector."""
    injector = _ACTIVE
    if injector is not None:
        injector.reseed_kernel_calls(supernode, attempt)


def kernel_site(site: str, block: np.ndarray) -> None:
    """Kernel-side hook; no-op unless an injector is installed."""
    injector = _ACTIVE
    if injector is not None:
        injector.on_kernel(site, block)


def task_site(supernode: int, attempt: int) -> None:
    """Task-side hook; no-op unless an injector is installed."""
    injector = _ACTIVE
    if injector is not None:
        injector.on_task(supernode, attempt)

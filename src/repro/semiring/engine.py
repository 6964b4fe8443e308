"""The min-plus SemiringGemm engine (paper §5.1.2).

The paper's speedup story rests on one dense kernel — ``SemiringGemm`` —
shared by every blocked algorithm in the library.  This module is that
kernel, plus a reusable workspace.

:func:`minplus_kernel` ⊕-accumulates ``a ⊗ b`` into ``out`` in steps of
``kc = max(1, min(k, B // (m·n)))`` pivots, where :data:`B` bounds the
``(kc, m, n)`` step buffer.  Each step *copies* the ``kc`` rows of ``b``
into the buffer, adds the ``kc`` columns of ``a`` in place, reduces the
planes with ``min`` and ⊕-folds the result into ``out``; with ``kc == 1``
it copies and adds one pivot at a time.  Copy-then-add is the point: a
broadcast add ``np.add(a[:, t:t+1], b[t], out=tmp)`` costs about five
contiguous copies of the buffer, a row copy plus an in-place column add
about four (``docs/PERFORMANCE.md``).  Small fronts fit in one step, a
separator panel (small ``(m, n)``, long ``k``) in a few, and a large
trailing update runs one pivot per step on an ``(m, n)`` buffer.

Results are bit-identical to the quadratic-memory oracle on non-aliased
operands: ``C[i, j]`` is ``min_t fl(A[i, t] + B[t, j])`` and both
``min`` and IEEE ``+`` are deterministic whatever the step size.

:func:`minplus_symmetric_kernel` is the symmetric mode, the min-plus
``SYRK``: when ``B = Aᵀ`` and the accumulator is symmetric bit for bit,
it runs the kernel on a staircase of row strips on and below the
diagonal and copies the strict upper part from the lower part's
transpose.  Entry ``(j, i)``'s candidates ``fl(A[j, t] + A[i, t])`` are
entry ``(i, j)``'s with the operands swapped, and IEEE ``+`` is
commutative, so the mirror is exact on any weights.

Engines keep call/op/time counters, keyed by the kernel name
:data:`KERNEL`, which the solvers surface in
``APSPResult.meta["engine"]["strategies"]``.

The module-level *ambient engine* (:func:`get_engine` /
:func:`set_engine`) is what the blocked kernels in
:mod:`repro.semiring.kernels`, :func:`~repro.semiring.minplus.minplus_gemm`
and the hub-label factor route through, so every min-plus product in
the library — dense blocked, SuperFW on every executor, path doubling,
the rank-k fold and the factor passes — runs the same kernel without
plumbing an object through every call site.  (``docs/ARCHITECTURE.md``
calls this the *kernel layer*.)  When the ambient tracer
(:mod:`repro.obs`) is enabled, every call records a ``gemm`` span
plus an ``engine.dispatch.<kernel>`` counter — see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import nullcontext
from typing import Any

import numpy as np

from repro.obs import get_tracer

#: Elements of the ``(kc, m, n)`` step buffer (256 KiB of float64): a
#: product takes ``kc = max(1, min(k, B // (m·n)))`` pivots per step.
B = 32_768

#: The kernel's name in the engine counters and trace attributes.
KERNEL = "minplus"

#: Row strips of a symmetric ``r × r`` product: ``max(1, min(MAX_STRIPS,
#: r // STRIP_ROWS))``, a function of the shape alone.  ``s`` equal
#: strips compute ``(s + 1) / 2s`` of the full product.
MAX_STRIPS = 8
STRIP_ROWS = 32


def result_dtype(a: np.ndarray, b: np.ndarray) -> np.dtype:
    """Output dtype of a min-plus product: the operands' common *float* type.

    Floating operands keep their precision — float32 inputs produce a
    float32 product, halving memory traffic (and roughly doubling SIMD
    throughput) versus an unconditional float64 upcast.  Integer and
    boolean operands still widen to float64, because a min-plus matrix
    needs ``+inf`` as its structural zero.
    """
    dt = np.result_type(a, b)
    if not np.issubdtype(dt, np.floating):
        dt = np.result_type(dt, np.float64)
    return dt


class WorkspacePool:
    """Thread-local pool of reusable scratch buffers.

    Buffers are keyed by name and grown on demand, so a solver that
    calls the engine thousands of times with similar shapes performs a
    handful of allocations total.  Storage is per-thread: the threaded
    SuperFW executor's workers each get private scratch, which keeps the
    pool lock-free.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._stats_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _store(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        store = getattr(self._local, "store", None)
        if store is None:
            store = {}
            self._local.store = store
        return store

    def buffer(self, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A scratch array of ``shape``/``dtype``, reused across calls.

        The returned array is a view into pooled storage; its contents
        are arbitrary (callers must fully overwrite it).  Each key keeps
        its last view, so a repeated request costs one dict lookup.
        """
        store = self._store()
        entry = store.get(key)
        if entry is not None:
            flat, view = entry
            if view.shape == shape and view.dtype == dtype:
                with self._stats_lock:
                    self.hits += 1
                return view
            need = math.prod(shape)
            if flat.dtype == dtype and flat.size >= need:
                view = flat[:need].reshape(shape)
                store[key] = (flat, view)
                with self._stats_lock:
                    self.hits += 1
                return view
        flat = np.empty(math.prod(shape), dtype=dtype)
        view = flat.reshape(shape)
        store[key] = (flat, view)
        with self._stats_lock:
            self.misses += 1
        return view

    def nbytes(self) -> int:
        """Bytes held by the calling thread's buffers."""
        return sum(flat.nbytes for flat, _ in self._store().values())


def minplus_kernel(
    pool: WorkspacePool, a: np.ndarray, b: np.ndarray, out: np.ndarray
) -> None:
    """⊕-accumulate ``a ⊗ b`` into ``out``, drawing scratch from ``pool``.

    ``out`` already holds ``inf`` or the prior values.  Each step reads
    its ``kc`` pivots of ``a`` and ``b`` into the buffer before folding
    into ``out``, so ``out`` may alias an operand under the contract of
    :meth:`SemiringGemmEngine.gemm`.
    """
    m, k = a.shape
    n = b.shape[1]
    kc = min(k, B // (m * n))
    if kc <= 1:
        tmp = pool.buffer("step", (m, n), out.dtype)
        for t in range(k):
            tmp[...] = b[t]
            np.add(tmp, a[:, t : t + 1], out=tmp)
            np.minimum(out, tmp, out=out)
        return
    # The (kc, m, n) buffer is reduced over its *leading* axis: NumPy
    # streams the min over contiguous (m, n) planes.
    aT = a.T
    steps = pool.buffer("steps", (kc, m, n), out.dtype)
    red = pool.buffer("red", (m, n), out.dtype)
    for k0 in range(0, k, kc):
        k1 = min(k0 + kc, k)
        v = steps[: k1 - k0]
        v[...] = b[k0:k1, None, :]
        np.add(v, aT[k0:k1, :, None], out=v)
        np.minimum.reduce(v, axis=0, out=red)
        np.minimum(out, red, out=out)


def symmetric_strips(r: int) -> int:
    """Row strips :func:`minplus_symmetric_kernel` cuts an ``r × r`` product into."""
    return max(1, min(MAX_STRIPS, r // STRIP_ROWS))


def minplus_symmetric_kernel(
    pool: WorkspacePool, a: np.ndarray, b: np.ndarray, out: np.ndarray
) -> int:
    """:func:`minplus_kernel` for ``b = aᵀ`` and a symmetric ``out``.

    Both conditions must hold bit for bit; then so does the result's
    symmetry.  Strip ``i`` of :func:`symmetric_strips` equal row strips
    ``[r0, r1)`` is updated against columns ``[0, r1)``, and each strip's
    columns right of ``r1`` are then copied from the transpose of the
    rows below it, which later strips computed.  Returns the scalar ops
    executed (the full product's ``2·r·k·r`` when one strip).
    """
    r, k = a.shape
    strips = symmetric_strips(r)
    bounds = [r * i // strips for i in range(strips + 1)]
    ops = 0
    for r0, r1 in zip(bounds, bounds[1:]):
        minplus_kernel(pool, a[r0:r1], b[:, :r1], out[r0:r1, :r1])
        ops += 2 * (r1 - r0) * k * r1
    for r0, r1 in zip(bounds, bounds[1:-1]):
        out[r0:r1, r1:] = out[r1:, r0:r1].T
    return ops


class SemiringGemmEngine:
    """Min-plus GEMM with workspace reuse and call/op/time counters."""

    def __init__(self) -> None:
        self.workspace = WorkspacePool()
        self._stats_lock = threading.Lock()
        self._calls = 0
        self._ops = 0
        self._seconds = 0.0

    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: np.ndarray | None = None,
        accumulate: bool = False,
        symmetric: bool = False,
    ) -> np.ndarray:
        """Min-plus product ``C[i,j] = min_t (A[i,t] + B[t,j])``.

        Same contract as :func:`repro.semiring.minplus.minplus_gemm`
        (including dtype propagation: float32 operands stay float32).
        ``out`` may alias ``a`` or ``b`` *only* when the aliased operand
        is a transitively closed diagonal block's panel product — the
        blocked-FW PanelUpdate case — where extra relaxations through
        already-updated rows are dominated by direct candidates and the
        result is unchanged.

        ``symmetric`` promises that ``b`` is ``aᵀ`` and that an
        accumulated ``out`` is symmetric, both bit for bit, and runs
        :func:`minplus_symmetric_kernel`: one call, whose ``ops`` counter
        records the staircase actually computed.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
        m, kdim = a.shape
        n = b.shape[1]
        if out is None:
            out = np.full((m, n), np.inf, dtype=result_dtype(a, b))
        elif out.shape != (m, n):
            raise ValueError(f"out has shape {out.shape}, expected {(m, n)}")
        elif not accumulate:
            out.fill(np.inf)
        if symmetric and m != n:
            raise ValueError(f"a symmetric product is square, not {(m, n)}")
        if kdim == 0 or m == 0 or n == 0:
            return out
        tracer = get_tracer()
        span = (
            # Attribute dicts are built only on the traced path: gemm is
            # the hottest call site in the library.
            tracer.span("gemm", strategy=KERNEL, m=m, k=kdim, n=n)
            if tracer.enabled else nullcontext()
        )
        if tracer.enabled:
            tracer.metrics.inc("engine.dispatch." + KERNEL)
        with span:
            t0 = time.perf_counter()
            if symmetric:
                ops = minplus_symmetric_kernel(self.workspace, a, b, out)
            else:
                minplus_kernel(self.workspace, a, b, out)
                ops = 2 * m * n * kdim
            seconds = time.perf_counter() - t0
        with self._stats_lock:
            self._calls += 1
            self._ops += ops
            self._seconds += seconds
        return out

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict[str, float]:
        """The raw counters, for later delta reporting by :meth:`stats_dict`.

        Workspace hits/misses ride along so they are reported as a delta
        too.
        """
        with self._stats_lock:
            snap = {"calls": self._calls, "ops": self._ops,
                    "seconds": self._seconds}
        snap["hits"] = self.workspace.hits
        snap["misses"] = self.workspace.misses
        return snap

    def stats_dict(self, since: dict[str, float] | None = None) -> dict[str, Any]:
        """JSON-friendly counters (for ``APSPResult.meta["engine"]``).

        ``strategies`` maps the kernel name :data:`KERNEL` to its calls,
        ops and seconds (an empty dict when no product ran), so readers
        can sum over it.  ``since`` (a prior :meth:`stats_snapshot`)
        subtracts earlier activity so a solver on the long-lived ambient
        engine reports only its own calls.
        """
        now = self.stats_snapshot()
        d = {key: now[key] - (since or {}).get(key, 0) for key in now}
        strategies = {}
        if d["calls"] > 0:
            strategies[KERNEL] = {
                "calls": int(d["calls"]),
                "ops": int(d["ops"]),
                "seconds": round(float(d["seconds"]), 6),
            }
        return {
            "strategies": strategies,
            "workspace": {"hits": int(d["hits"]), "misses": int(d["misses"])},
        }

    def merge_stats(
        self,
        strategies: dict[str, dict[str, float]],
        workspace: dict[str, int] | None = None,
    ) -> None:
        """Fold a worker's ``stats_dict()["strategies"]`` into this engine.

        Used by the process-pool SuperFW backend, whose workers run their
        own per-process engines.  Calls, ops and seconds add up, so a
        process solve reports the same calls and ops as a
        thread-executor one.  ``workspace`` (a worker's
        ``stats_dict()["workspace"]`` delta) folds the worker's pool
        hits/misses in as well — without it, process-backend solves
        under-report workspace reuse relative to the other backends.
        """
        with self._stats_lock:
            for v in strategies.values():
                self._calls += int(v["calls"])
                self._ops += int(v["ops"])
                self._seconds += float(v["seconds"])
        if workspace:
            with self.workspace._stats_lock:
                self.workspace.hits += int(workspace.get("hits", 0))
                self.workspace.misses += int(workspace.get("misses", 0))


# ---------------------------------------------------------------------------
# Ambient engine
# ---------------------------------------------------------------------------
_engine_lock = threading.Lock()
_engine: SemiringGemmEngine | None = None


def get_engine() -> SemiringGemmEngine:
    """The ambient engine every min-plus product routes through (lazy)."""
    global _engine
    if _engine is None:
        with _engine_lock:
            if _engine is None:
                _engine = SemiringGemmEngine()
    return _engine


def set_engine(engine: SemiringGemmEngine | None) -> SemiringGemmEngine | None:
    """Install ``engine`` as ambient (``None`` resets); returns the old one."""
    global _engine
    with _engine_lock:
        previous = _engine
        _engine = engine
    return previous

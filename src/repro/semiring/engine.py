"""The tiled min-plus SemiringGemm engine (paper §5.1.2).

The paper's speedup story rests on one dense kernel — ``SemiringGemm`` —
shared by every blocked algorithm in the library.  This module is that
kernel: three tiled implementations behind one shape rule, plus a
reusable workspace:

``rank1``
    The classic loop of rank-1 "broadcast ⊕" updates, writing its
    per-iteration broadcast into a pooled scratch buffer instead of a
    fresh allocation.  Lowest memory footprint; best for small operands
    where NumPy call overhead dominates.
``ktiled``
    Contraction-tiled: processes ``kc`` pivots at once through a bounded
    ``(kc, m, n)`` broadcast followed by one plane-contiguous
    ``min``-reduction over the leading axis.  Replaces ``kc`` NumPy
    call/temporary round-trips with one, which wins by 2--9x on
    separator-panel products — a small ``(m, n)`` output contracted over
    a long ``k`` — where per-pivot interpreter overhead dominates the
    rank-1 loop.
``outtiled``
    Output-tiled: splits the ``(m, n)`` output into :data:`TILE`-square
    tiles and runs the k-tiled kernel per tile, bounding every
    intermediate by ``kc x TILE x TILE``.  For very large trailing
    updates where the full ``(kc, m, n)`` broadcast would not fit
    :data:`WORKSPACE_LIMIT`.

All three produce bit-identical results on non-aliased operands: the
value of ``C[i, j]`` is ``min_t fl(A[i, t] + B[t, j])`` and both ``min``
and IEEE ``+`` are deterministic regardless of tiling order.

:meth:`SemiringGemmEngine.gemm` picks the kernel with
:func:`choose_kernel`, a pure function of the shape ``(m, k, n)``; there
is no per-call override and no tuning state.  Engines keep per-kernel
call/op/time counters which the solvers surface in
``APSPResult.meta["engine"]``.

The module-level *ambient engine* (:func:`get_engine` /
:func:`set_engine`) is what the blocked kernels in
:mod:`repro.semiring.kernels`, :func:`~repro.semiring.minplus.minplus_gemm`
and the hub-label factor route through, so every min-plus product in
the library — dense blocked, SuperFW on every executor, path doubling,
the rank-k fold and the factor passes — runs the same kernel without
plumbing an object through every call site.  (``docs/ARCHITECTURE.md``
calls this the *kernel layer*.)  When the ambient tracer
(:mod:`repro.obs`) is enabled, every dispatch records a ``gemm`` span
plus an ``engine.dispatch.<kernel>`` counter — see
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any

import numpy as np

from repro.obs import get_tracer

#: Edge of the square output tile of ``outtiled``.
TILE = 128

#: Ceiling on the ``(kc, m, n)`` broadcast intermediate, in scalar
#: elements; ``kc`` is clipped so the intermediate never exceeds it.
WORKSPACE_LIMIT = 4_194_304

#: Target byte size of the ``(kc, m, n)`` broadcast intermediate: roughly
#: L2-resident so the plane reduction re-reads warm cache lines.  At
#: least :data:`KC_AUTO_MIN` pivots per tile so interpreter overhead
#: stays amortized.
KC_AUTO_BYTES = 512 * 1024
KC_AUTO_MIN = 64

#: Contraction tile the shape rule assumes when it asks whether one
#: whole-output k-tile would exceed :data:`WORKSPACE_LIMIT`.
_RULE_KC = 16


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


def choose_kernel(m: int, k: int, n: int) -> str:
    """The kernel for an ``m x k x n`` product.

    Derived from the measured machine model: every kernel moves the
    same memory per pivot, so tiling wins exactly where per-pivot
    *interpreter* overhead dominates — a small output panel contracted
    over a long ``k`` (the separator-panel products of the supernodal
    solve).  Large square products are bandwidth-bound and stay on the
    pooled rank-1 loop; huge outputs whose k-tile intermediate would
    exceed :data:`WORKSPACE_LIMIT` go output-tiled.
    """
    mn = m * n
    if mn <= 4_096 and k >= 1_024:  # separator panel: long k, small out
        return "ktiled"
    if k < 64 or mn < 65_536:  # tiny contraction or in-cache output
        return "rank1"
    if mn > 4 * TILE * TILE and mn * _RULE_KC > WORKSPACE_LIMIT:
        return "outtiled"
    return "rank1"


class WorkspacePool:
    """Thread-local pool of reusable scratch buffers.

    Buffers are keyed by name and grown geometrically, so a solver that
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

    def _store(self) -> dict[str, np.ndarray]:
        store = getattr(self._local, "store", None)
        if store is None:
            store = {}
            self._local.store = store
        return store

    def buffer(self, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A scratch array of ``shape``/``dtype``, reused across calls.

        The returned array is a view into pooled storage; its contents
        are arbitrary (callers must fully overwrite it).
        """
        store = self._store()
        need = math.prod(shape)
        flat = store.get(key)
        if flat is None or flat.dtype != np.dtype(dtype) or flat.size < need:
            store[key] = flat = np.empty(need, dtype=dtype)
            with self._stats_lock:
                self.misses += 1
        else:
            with self._stats_lock:
                self.hits += 1
        return flat[:need].reshape(shape)

    def nbytes(self) -> int:
        """Bytes held by the calling thread's buffers."""
        return sum(arr.nbytes for arr in self._store().values())


# ---------------------------------------------------------------------------
# The kernels.  Each ⊕-accumulates ``a ⊗ b`` into ``out`` (already holding
# ``inf`` or the prior values), drawing scratch from ``pool``.
# ---------------------------------------------------------------------------
def _rank1(
    pool: WorkspacePool, a: np.ndarray, b: np.ndarray, out: np.ndarray
) -> None:
    tmp = pool.buffer("rank1", out.shape, out.dtype)
    for t in range(a.shape[1]):
        np.add(a[:, t : t + 1], b[t, :], out=tmp)
        np.minimum(out, tmp, out=out)


def _kc(m: int, n: int, itemsize: int) -> int:
    """Contraction tile for an ``(m, n)`` output: cache-sized, bounded."""
    mn = max(1, m * n)
    kc = max(KC_AUTO_MIN, KC_AUTO_BYTES // (itemsize * mn))
    return max(1, min(kc, WORKSPACE_LIMIT // mn))


def _ktiled(
    pool: WorkspacePool, a: np.ndarray, b: np.ndarray, out: np.ndarray
) -> None:
    # The (kc, m, n) intermediate is reduced over its *leading* axis:
    # NumPy streams the min over contiguous (m, n) planes, which is
    # several times faster than reducing the strided middle axis of
    # an (m, kc, n) layout.
    m, k = a.shape
    n = b.shape[1]
    kc = _kc(m, n, out.dtype.itemsize)
    if kc <= 1:
        _rank1(pool, a, b, out)
        return
    aT = a.T  # (k, m) view; broadcast reads are O(kc*m), negligible
    tmp = pool.buffer("ktiled3d", (kc, m, n), out.dtype)
    red = pool.buffer("ktiled2d", (m, n), out.dtype)
    for k0 in range(0, k, kc):
        k1 = min(k0 + kc, k)
        if k1 - k0 == 1:
            np.add(a[:, k0 : k0 + 1], b[k0, :], out=red)
        else:
            view = tmp[: k1 - k0]
            np.add(aT[k0:k1, :, None], b[k0:k1, None, :], out=view)
            np.minimum.reduce(view, axis=0, out=red)
        np.minimum(out, red, out=out)


def _outtiled(
    pool: WorkspacePool, a: np.ndarray, b: np.ndarray, out: np.ndarray
) -> None:
    m, k = a.shape
    n = b.shape[1]
    tm, tn = min(TILE, m), min(TILE, n)
    kc = _kc(tm, tn, out.dtype.itemsize)
    aT = a.T
    tmp = pool.buffer("outtiled3d", (kc, tm, tn), out.dtype)
    red = pool.buffer("outtiled2d", (tm, tn), out.dtype)
    for i0 in range(0, m, tm):
        i1 = min(i0 + tm, m)
        for j0 in range(0, n, tn):
            j1 = min(j0 + tn, n)
            sub = out[i0:i1, j0:j1]
            r = red[: i1 - i0, : j1 - j0]
            for k0 in range(0, k, kc):
                k1 = min(k0 + kc, k)
                if k1 - k0 == 1:
                    np.add(a[i0:i1, k0 : k0 + 1], b[k0, j0:j1], out=r)
                else:
                    view = tmp[: k1 - k0, : i1 - i0, : j1 - j0]
                    np.add(
                        aT[k0:k1, i0:i1, None], b[k0:k1, None, j0:j1], out=view
                    )
                    np.minimum.reduce(view, axis=0, out=r)
                np.minimum(sub, r, out=sub)


#: Kernel by name: ``KERNELS[name](pool, a, b, out)`` ⊕-accumulates
#: ``a ⊗ b`` into ``out``.  :meth:`SemiringGemmEngine.gemm` dispatches
#: through it; tests and ``benchmarks/bench_engine.py`` call a kernel
#: directly.
KERNELS = {"rank1": _rank1, "ktiled": _ktiled, "outtiled": _outtiled}

#: The kernel names.
STRATEGIES: tuple[str, ...] = tuple(KERNELS)


class SemiringGemmEngine:
    """Min-plus GEMM with shape dispatch, workspace reuse and counters."""

    def __init__(self) -> None:
        self.workspace = WorkspacePool()
        self._stats_lock = threading.Lock()
        self._stats: dict[str, dict[str, float]] = {}

    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: np.ndarray | None = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """Min-plus product ``C[i,j] = min_t (A[i,t] + B[t,j])``.

        Same contract as :func:`repro.semiring.minplus.minplus_gemm`
        (including dtype propagation: float32 operands stay float32).
        ``out`` may alias ``a`` or ``b`` *only* when the aliased operand
        is a transitively closed diagonal block's panel product — the
        blocked-FW PanelUpdate case — where extra relaxations through
        already-updated rows are dominated by direct candidates and the
        result is unchanged.
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
        if kdim == 0 or m == 0 or n == 0:
            return out
        name = choose_kernel(m, kdim, n)
        kernel = KERNELS[name]
        tracer = get_tracer()
        if tracer.enabled:
            # Attribute dicts are built only on the traced path: gemm is
            # the hottest call site in the library.
            tracer.metrics.inc("engine.dispatch." + name)
            with tracer.span("gemm", strategy=name, m=m, k=kdim, n=n):
                t0 = time.perf_counter()
                kernel(self.workspace, a, b, out)
                seconds = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            kernel(self.workspace, a, b, out)
            seconds = time.perf_counter() - t0
        self._record(name, 2 * m * n * kdim, seconds)
        return out

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _record(
        self, strategy: str, ops: int, seconds: float, calls: int = 1
    ) -> None:
        with self._stats_lock:
            entry = self._stats.setdefault(
                strategy, {"calls": 0, "ops": 0, "seconds": 0.0}
            )
            entry["calls"] += calls
            entry["ops"] += ops
            entry["seconds"] += seconds

    def stats_snapshot(self) -> dict[str, dict[str, float]]:
        """Copy of the raw per-kernel counters, for later delta reporting.

        Includes a ``"__workspace__"`` entry (never a kernel name) so
        :meth:`stats_dict` can report workspace hits/misses as a delta.
        """
        with self._stats_lock:
            snap = {name: dict(v) for name, v in self._stats.items()}
        snap["__workspace__"] = {
            "hits": self.workspace.hits, "misses": self.workspace.misses,
        }
        return snap

    def stats_dict(
        self, since: dict[str, dict[str, float]] | None = None
    ) -> dict[str, Any]:
        """JSON-friendly per-kernel counters (for ``APSPResult.meta``).

        ``since`` (a prior :meth:`stats_snapshot`) subtracts earlier
        activity so a solver on the long-lived ambient engine reports
        only its own calls.
        """
        since = since or {}
        zero = {"calls": 0, "ops": 0, "seconds": 0.0}
        with self._stats_lock:
            strategies = {
                name: {
                    "calls": int(v["calls"] - since.get(name, zero)["calls"]),
                    "ops": int(v["ops"] - since.get(name, zero)["ops"]),
                    "seconds": round(
                        float(v["seconds"] - since.get(name, zero)["seconds"]), 6
                    ),
                }
                for name, v in sorted(self._stats.items())
            }
            strategies = {
                name: v for name, v in strategies.items() if v["calls"] > 0
            }
        ws_since = since.get("__workspace__", {"hits": 0, "misses": 0})
        return {
            "strategies": strategies,
            "workspace": {
                "hits": int(self.workspace.hits - ws_since["hits"]),
                "misses": int(self.workspace.misses - ws_since["misses"]),
            },
        }

    def merge_stats(
        self,
        strategies: dict[str, dict[str, float]],
        workspace: dict[str, int] | None = None,
    ) -> None:
        """Fold a worker's ``stats_dict()["strategies"]`` into this engine.

        Used by the process-pool SuperFW backend, whose workers run their
        own per-process engines.  Calls, ops and seconds add up, so a
        process solve reports the same per-kernel calls and ops as a
        thread-executor one.  ``workspace`` (a worker's
        ``stats_dict()["workspace"]`` delta) folds the worker's pool
        hits/misses in as well — without it, process-backend solves
        under-report workspace reuse relative to the other backends.
        """
        for name, v in strategies.items():
            self._record(name, int(v["ops"]), float(v["seconds"]), int(v["calls"]))
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

"""Tiled multi-strategy SemiringGemm engine (paper §5.1.2).

The paper's speedup story rests on one dense kernel — ``SemiringGemm`` —
shared by every blocked algorithm in the library.  The original
implementation was a single rank-1 NumPy loop that allocated a fresh
``(m, n)`` temporary on every one of ``k`` iterations.  This module turns
that kernel into an *engine* with three strategies and a reusable
workspace:

``rank1``
    The classic loop of rank-1 "broadcast ⊕" updates, now writing its
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
    Output-tiled: splits the ``(m, n)`` output into cache-sized tiles and
    runs the k-tiled kernel per tile, bounding every intermediate by
    ``kc x tile_m x tile_n``.  For very large trailing updates where the
    full ``(kc, m, n)`` broadcast would not fit the workspace ceiling.

All three produce bit-identical results on non-aliased operands: the
value of ``C[i, j]`` is ``min_t fl(A[i, t] + B[t, j])`` and both ``min``
and IEEE ``+`` are deterministic regardless of tiling order.

Strategy selection (``strategy="auto"``) goes through a shape-keyed
autotuner: a measured calibration table (optionally persisted to a JSON
cache) is consulted first, then a deterministic heuristic derived from
the machine model above.  Engines also keep per-strategy call/op/time
counters which the solvers surface in ``APSPResult.meta["engine"]``.

The module-level *ambient engine* (:func:`get_engine` /
:func:`set_engine` / :func:`use_engine`) is what the blocked kernels in
:mod:`repro.semiring.kernels` route through, so every solver — dense
blocked, SuperFW, the etree-parallel executors, and the multifrontal
schedule — picks up the same tuned kernel without plumbing an object
through every call site.  (``docs/ARCHITECTURE.md`` calls this the
*kernel layer*.)  When the ambient tracer (:mod:`repro.obs`) is enabled,
every dispatch records a ``gemm`` span plus an ``engine.dispatch.*``
metric, and each shape bucket's first strategy decision is emitted as an
``autotune`` instant — see ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable, Sequence

import numpy as np

from repro.obs import get_tracer
from repro.semiring.minplus import result_dtype

#: Names accepted for ``SemiringGemmEngine(strategy=...)``.
STRATEGIES: tuple[str, ...] = ("rank1", "ktiled", "outtiled")

#: Environment variable overriding the default engine's strategy.
_ENV_STRATEGY = "REPRO_ENGINE"


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


def _bucket(x: int) -> int:
    """Round up to a power of two — the autotuner's shape-bucketing."""
    x = max(1, int(x))
    return 1 << (x - 1).bit_length()


class AutoTuner:
    """Shape-bucketed strategy table with an optional JSON cache.

    ``lookup`` consults measured calibration entries first; misses fall
    back to the caller's heuristic.  ``save``/``load`` persist the table
    as ``{"version": 1, "entries": {"MxKxN[/dtype]": {...}}}``.
    """

    CACHE_VERSION = 1

    def __init__(self, cache_path: str | os.PathLike | None = None) -> None:
        self.cache_path = os.fspath(cache_path) if cache_path else None
        self.entries: dict[str, dict[str, Any]] = {}
        #: Bumped by every :meth:`record` and :meth:`load`, so an engine
        #: can tell that its memoized strategy picks went stale.
        self.generation = 0
        if self.cache_path and os.path.exists(self.cache_path):
            self.load(self.cache_path)

    @staticmethod
    def key(m: int, k: int, n: int, dtype) -> str:
        return f"{_bucket(m)}x{_bucket(k)}x{_bucket(n)}/{np.dtype(dtype).name}"

    def lookup(self, m: int, k: int, n: int, dtype) -> str | None:
        """Calibrated strategy for the shape's bucket, or ``None``."""
        entry = self.entries.get(self.key(m, k, n, dtype))
        return entry["strategy"] if entry else None

    def record(
        self, m: int, k: int, n: int, dtype, strategy: str,
        times: dict[str, float] | None = None,
    ) -> None:
        """Store the winning ``strategy`` (and timings) for a shape bucket."""
        entry: dict[str, Any] = {"strategy": strategy}
        if times:
            entry["seconds"] = {s: round(t, 6) for s, t in times.items()}
        self.entries[self.key(m, k, n, dtype)] = entry
        self.generation += 1

    def save(self, path: str | os.PathLike | None = None) -> str:
        """Atomically write the table as JSON; returns the path written."""
        path = os.fspath(path or self.cache_path)
        if not path:
            raise ValueError("no cache path configured")
        payload = {"version": self.CACHE_VERSION, "entries": self.entries}
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
        return path

    def load(self, path: str | os.PathLike) -> None:
        """Merge entries from a JSON cache, ignoring stale/foreign formats."""
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("version") != self.CACHE_VERSION:
            return  # stale cache format: ignore, will be overwritten on save
        entries = payload.get("entries", {})
        self.entries.update(
            {k: v for k, v in entries.items()
             if isinstance(v, dict) and v.get("strategy") in STRATEGIES}
        )
        self.generation += 1


class SemiringGemmEngine:
    """Multi-strategy min-plus GEMM with workspace reuse and autotuning.

    Parameters
    ----------
    strategy:
        ``"auto"`` (tuner + heuristic dispatch) or one of
        :data:`STRATEGIES` to force a kernel.
    kc:
        Contraction tile for ``ktiled``/``outtiled``; ``None`` (default)
        sizes the tile per call so the ``(kc, m, n)`` intermediate stays
        roughly cache-resident.
    tile_m / tile_n:
        Output tile for ``outtiled``.
    workspace_elements:
        Ceiling on the ``(m, kc, n)`` broadcast intermediate, in scalar
        elements; ``kc`` is clipped so the intermediate never exceeds it.
    cache_path:
        Optional JSON autotuner cache, loaded now and written by
        :meth:`calibrate`.
    collect:
        Keep per-strategy call/op/time counters (tiny overhead; on by
        default because the solvers report them).
    """

    def __init__(
        self,
        strategy: str = "auto",
        *,
        kc: int | None = None,
        tile_m: int = 128,
        tile_n: int = 128,
        workspace_elements: int = 4_194_304,
        cache_path: str | os.PathLike | None = None,
        collect: bool = True,
    ) -> None:
        if strategy != "auto" and strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; choose 'auto' or one of {STRATEGIES}"
            )
        self.strategy = strategy
        self.kc = None if kc is None else max(1, int(kc))
        self.tile_m = max(8, int(tile_m))
        self.tile_n = max(8, int(tile_n))
        self.workspace_elements = max(1024, int(workspace_elements))
        self.workspace = WorkspacePool()
        self.tuner = AutoTuner(cache_path)
        self.collect = collect
        self._stats_lock = threading.Lock()
        self._stats: dict[str, dict[str, float]] = {}
        # Shape buckets already announced to a tracer as "autotune"
        # instants — one event per bucket, not per gemm call.
        self._announced: set[str] = set()
        # Untraced dispatch memo: (tuner, generation, {(m, k, n, dtype):
        # choose()'s pick}), valid while the tuner is unchanged.
        self._memo: tuple[AutoTuner | None, int, dict[tuple, str]] = (None, -1, {})

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def heuristic(self, m: int, k: int, n: int) -> str:
        """Deterministic default strategy for an ``m x k x n`` product.

        Derived from the measured machine model: every strategy moves the
        same memory per pivot, so tiling wins exactly where per-pivot
        *interpreter* overhead dominates — a small output panel
        contracted over a long ``k`` (the separator-panel products of the
        supernodal solve).  Large square products are bandwidth-bound and
        stay on the pooled rank-1 loop; huge outputs whose k-tile
        intermediate would blow the workspace ceiling go output-tiled.
        """
        mn = m * n
        if mn <= 4_096 and k >= 1_024:  # separator panel: long k, small out
            return "ktiled"
        if k < 64 or mn < 65_536:  # tiny contraction or in-cache output
            return "rank1"
        kc = self.kc or 16
        if mn > 4 * self.tile_m * self.tile_n and mn * kc > self.workspace_elements:
            return "outtiled"
        return "rank1"

    def choose(self, m: int, k: int, n: int, dtype) -> str:
        """Strategy for a shape: calibration table first, heuristic else."""
        if self.strategy != "auto":
            return self.strategy
        tuned = self.tuner.lookup(m, k, n, dtype)
        name = tuned if tuned is not None else self.heuristic(m, k, n)
        tracer = get_tracer()
        if tracer.enabled:
            bucket = self.tuner.key(m, k, n, dtype)
            if bucket not in self._announced:
                self._announced.add(bucket)
                tracer.instant(
                    "autotune",
                    bucket=bucket,
                    strategy=name,
                    source="table" if tuned is not None else "heuristic",
                )
        return name

    def _memoized_choice(self, m: int, k: int, n: int, dtype) -> str:
        """:meth:`choose` memoized per exact shape and dtype.

        ``choose`` formats a bucket key and consults the tuner table on
        every call, which costs more than a small product itself.  The
        memo is dropped whenever the tuner changes (:meth:`calibrate`,
        :meth:`AutoTuner.load`, or a replaced ``tuner``).
        """
        if self.strategy != "auto":
            return self.strategy
        tuner = self.tuner
        owner, generation, memo = self._memo
        if owner is not tuner or generation != tuner.generation:
            # Swap in a fresh stamped dict with one assignment: a thread
            # still holding the old one only writes into a memo nobody
            # reads again.
            memo = {}
            self._memo = (tuner, tuner.generation, memo)
        key = (m, k, n, dtype)
        name = memo.get(key)
        if name is None:
            name = memo[key] = self.choose(m, k, n, dtype)
        return name

    # ------------------------------------------------------------------
    # The GEMM entry point
    # ------------------------------------------------------------------
    def gemm(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: np.ndarray | None = None,
        accumulate: bool = False,
        strategy: str | None = None,
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
        tracer = get_tracer()
        if strategy:
            name = strategy
        elif tracer.enabled:
            # Traced dispatch goes through choose() so every shape
            # bucket's first decision still emits its autotune instant.
            name = self.choose(m, kdim, n, out.dtype)
        else:
            name = self._memoized_choice(m, kdim, n, out.dtype)
        kernel = _KERNELS[name]
        if tracer.enabled:
            # Attribute dicts are built only on the traced path: gemm is
            # the hottest call site in the library.
            tracer.metrics.inc("engine.dispatch." + name)
            with tracer.span("gemm", strategy=name, m=m, k=kdim, n=n):
                if self.collect:
                    t0 = time.perf_counter()
                    kernel(self, a, b, out)
                    self._record(name, 2 * m * n * kdim, time.perf_counter() - t0)
                else:
                    kernel(self, a, b, out)
            return out
        if self.collect:
            t0 = time.perf_counter()
            kernel(self, a, b, out)
            self._record(name, 2 * m * n * kdim, time.perf_counter() - t0)
        else:
            kernel(self, a, b, out)
        return out

    # ------------------------------------------------------------------
    # Kernel strategies (all ⊕-accumulate into ``out``)
    # ------------------------------------------------------------------
    def _rank1(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        tmp = self.workspace.buffer("rank1", out.shape, out.dtype)
        for t in range(a.shape[1]):
            np.add(a[:, t : t + 1], b[t, :], out=tmp)
            np.minimum(out, tmp, out=out)

    #: Target byte size of the ``(kc, m, n)`` broadcast intermediate when
    #: ``kc`` is auto-sized: roughly L2-resident so the plane reduction
    #: re-reads warm cache lines.  At least :data:`KC_AUTO_MIN` pivots
    #: per tile so interpreter overhead stays amortized.
    KC_AUTO_BYTES = 512 * 1024
    KC_AUTO_MIN = 64

    def _effective_kc(self, m: int, n: int, itemsize: int) -> int:
        mn = max(1, m * n)
        if self.kc is not None:
            kc = self.kc
        else:
            kc = max(self.KC_AUTO_MIN, self.KC_AUTO_BYTES // (itemsize * mn))
        return max(1, min(kc, self.workspace_elements // mn))

    def _ktiled(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        # The (kc, m, n) intermediate is reduced over its *leading* axis:
        # NumPy streams the min over contiguous (m, n) planes, which is
        # several times faster than reducing the strided middle axis of
        # an (m, kc, n) layout.
        m, k = a.shape
        n = b.shape[1]
        kc = self._effective_kc(m, n, out.dtype.itemsize)
        if kc <= 1:
            self._rank1(a, b, out)
            return
        aT = a.T  # (k, m) view; broadcast reads are O(kc*m), negligible
        tmp = self.workspace.buffer("ktiled3d", (kc, m, n), out.dtype)
        red = self.workspace.buffer("ktiled2d", (m, n), out.dtype)
        for k0 in range(0, k, kc):
            k1 = min(k0 + kc, k)
            if k1 - k0 == 1:
                np.add(a[:, k0 : k0 + 1], b[k0, :], out=red)
            else:
                view = tmp[: k1 - k0]
                np.add(aT[k0:k1, :, None], b[k0:k1, None, :], out=view)
                np.minimum.reduce(view, axis=0, out=red)
            np.minimum(out, red, out=out)

    def _outtiled(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        m, k = a.shape
        n = b.shape[1]
        tm, tn = min(self.tile_m, m), min(self.tile_n, n)
        kc = self._effective_kc(tm, tn, out.dtype.itemsize)
        aT = a.T
        tmp = self.workspace.buffer("outtiled3d", (kc, tm, tn), out.dtype)
        red = self.workspace.buffer("outtiled2d", (tm, tn), out.dtype)
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

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    #: Default shapes measured by :meth:`calibrate` — diagonal blocks,
    #: separator panels, and a large trailing update.
    DEFAULT_CALIBRATION_SHAPES: tuple[tuple[int, int, int], ...] = (
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (32, 2048, 32),
        (512, 128, 512),
        (512, 512, 512),
    )

    def calibrate(
        self,
        shapes: Iterable[tuple[int, int, int]] | None = None,
        *,
        dtypes: Sequence = (np.float64,),
        repeats: int = 2,
        persist: bool = True,
        seed: int = 0,
    ) -> dict[str, dict[str, float]]:
        """Measure every strategy on ``shapes`` and record the winners.

        Returns ``{shape_key: {strategy: seconds}}``.  Winners land in
        the tuner table (consulted by ``strategy="auto"``) and, when
        ``persist`` and a ``cache_path`` is configured, in the JSON cache
        so later processes skip the measurement.
        """
        rng = np.random.default_rng(seed)
        report: dict[str, dict[str, float]] = {}
        for m, k, n in shapes or self.DEFAULT_CALIBRATION_SHAPES:
            for dtype in dtypes:
                a = rng.uniform(0.1, 5.0, (m, k)).astype(dtype)
                b = rng.uniform(0.1, 5.0, (k, n)).astype(dtype)
                out = np.empty((m, n), dtype=dtype)
                times: dict[str, float] = {}
                for name in STRATEGIES:
                    kernel = _KERNELS[name]
                    best = float("inf")
                    for _ in range(max(1, repeats)):
                        out.fill(np.inf)
                        t0 = time.perf_counter()
                        kernel(self, a, b, out)
                        best = min(best, time.perf_counter() - t0)
                    times[name] = best
                winner = min(times, key=times.get)
                self.tuner.record(m, k, n, dtype, winner, times)
                report[self.tuner.key(m, k, n, dtype)] = times
        if persist and self.tuner.cache_path:
            self.tuner.save()
        return report

    def spawn_config(self) -> dict[str, Any]:
        """Picklable constructor kwargs reproducing this engine's tuning.

        Used by the process-pool SuperFW backend to build an equivalent
        engine inside each worker (engines hold locks and thread-local
        pools, so the object itself cannot cross a process boundary).
        """
        return {
            "strategy": self.strategy,
            "kc": self.kc,
            "tile_m": self.tile_m,
            "tile_n": self.tile_n,
            "workspace_elements": self.workspace_elements,
        }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def _record(self, strategy: str, ops: int, seconds: float) -> None:
        with self._stats_lock:
            entry = self._stats.setdefault(
                strategy, {"calls": 0, "ops": 0, "seconds": 0.0}
            )
            entry["calls"] += 1
            entry["ops"] += ops
            entry["seconds"] += seconds

    def stats_snapshot(self) -> dict[str, dict[str, float]]:
        """Copy of the raw per-strategy counters, for later delta reporting.

        Includes a ``"__workspace__"`` entry (never a strategy name) so
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
        """JSON-friendly per-strategy counters (for ``APSPResult.meta``).

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
            "strategy": self.strategy,
            "kc": "auto" if self.kc is None else self.kc,
            "tile": [self.tile_m, self.tile_n],
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
        own per-process engines.  ``workspace`` (a worker's
        ``stats_dict()["workspace"]`` delta) folds the worker's pool
        hits/misses in as well — without it, process-backend solves
        under-report workspace reuse relative to the other backends.
        """
        for name, v in strategies.items():
            self._record(name, int(v.get("ops", 0)), float(v.get("seconds", 0.0)))
        if workspace:
            with self.workspace._stats_lock:
                self.workspace.hits += int(workspace.get("hits", 0))
                self.workspace.misses += int(workspace.get("misses", 0))

    def reset_stats(self) -> None:
        """Zero the per-strategy counters."""
        with self._stats_lock:
            self._stats.clear()


_KERNELS = {
    "rank1": SemiringGemmEngine._rank1,
    "ktiled": SemiringGemmEngine._ktiled,
    "outtiled": SemiringGemmEngine._outtiled,
}


# ---------------------------------------------------------------------------
# Ambient engine
# ---------------------------------------------------------------------------
_engine_lock = threading.Lock()
_engine: SemiringGemmEngine | None = None


def make_engine(
    spec: "str | SemiringGemmEngine | None", **options
) -> SemiringGemmEngine:
    """Coerce a strategy name / engine / ``None`` into an engine instance.

    ``None`` returns the ambient engine (options must be empty); a string
    builds a fresh engine with that strategy and ``options``.
    """
    if isinstance(spec, SemiringGemmEngine):
        return spec
    if spec is None:
        if options:
            return SemiringGemmEngine(**options)
        return get_engine()
    return SemiringGemmEngine(strategy=spec, **options)


def get_engine() -> SemiringGemmEngine:
    """The ambient engine used by :mod:`repro.semiring.kernels`.

    Created lazily; the initial strategy honours the ``REPRO_ENGINE``
    environment variable (``auto`` when unset).
    """
    global _engine
    if _engine is None:
        with _engine_lock:
            if _engine is None:
                strategy = os.environ.get(_ENV_STRATEGY, "auto")
                if strategy != "auto" and strategy not in STRATEGIES:
                    strategy = "auto"
                _engine = SemiringGemmEngine(strategy=strategy)
    return _engine


def set_engine(engine: SemiringGemmEngine | None) -> SemiringGemmEngine | None:
    """Install ``engine`` as ambient (``None`` resets); returns the old one."""
    global _engine
    with _engine_lock:
        previous = _engine
        _engine = engine
    return previous


@contextmanager
def use_engine(spec: "str | SemiringGemmEngine | None", **options):
    """Temporarily install an engine as the ambient one.

    The swap is process-global (all threads see it), matching how the
    parallel executors share one engine whose workspace pool is
    per-thread internally.
    """
    engine = make_engine(spec, **options)
    previous = set_engine(engine)
    try:
        yield engine
    finally:
        set_engine(previous)

"""Metrics primitives: operation counters and the solve-wide registry.

Two granularities of instrumentation live here:

* :class:`OpCounter` — the paper's machine-independent *scalar semiring
  operation* counts (§4, Table 2), accumulated per kernel category
  (``diag`` / ``panel`` / ``outer``).
* :class:`MetricsRegistry` — named counters, gauges, and compact
  histograms covering everything *around* the semiring ops: workspace
  pool hits, plan-cache hits, engine dispatch decisions, task retries,
  per-span timing stats.  A registry rides on every
  :class:`~repro.obs.trace.Tracer` and is snapshotted into
  ``APSPResult.meta["obs"]`` by the instrumented solvers.

Registries are thread-safe (the etree-parallel executors update them
from worker threads) and mergeable (process-pool workers return
snapshots that the coordinator folds back in — the same round trip the
span buffers take).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any


@dataclass
class OpCounter:
    """Accumulates scalar semiring operations by kernel category.

    Categories follow the paper's step names: ``diag``, ``panel``,
    ``outer`` — plus free-form extras.
    """

    counts: dict[str, int] = field(default_factory=dict)

    def add(self, category: str, ops: int) -> None:
        """Add ``ops`` scalar operations to ``category``."""
        self.counts[category] = self.counts.get(category, 0) + int(ops)

    @property
    def total(self) -> int:
        """Total scalar semiring operations across all categories."""
        return sum(self.counts.values())

    def merge(self, other: "OpCounter") -> None:
        """Fold another counter's counts into this one.

        This is the single accumulation path for *every* execution mode:
        the sequential sweep, the threaded executor, and the process
        backend (whose workers ship their per-task :class:`OpCounter`
        back to the coordinator alongside their span buffers).
        """
        for key, val in other.counts.items():
            self.add(key, val)

    def reset(self) -> None:
        """Zero all categories."""
        self.counts.clear()

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v:.3g}" for k, v in sorted(self.counts.items()))
        return f"OpCounter(total={self.total:.4g}, {inner})"


class MetricsRegistry:
    """Thread-safe named counters, gauges, and min/max/mean histograms.

    Unlike a production metrics client this registry is deliberately
    tiny: plain dicts guarded by one lock, no label sets, no exposition
    format — its only consumers are ``APSPResult.meta["obs"]`` and the
    trace exporters.  Histograms keep ``count``/``total``/``min``/``max``
    (constant memory), not buckets.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value`` (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                self._hists[name] = {
                    "count": 1, "total": value, "min": value, "max": value,
                }
            else:
                h["count"] += 1
                h["total"] += value
                if value < h["min"]:
                    h["min"] = value
                if value > h["max"]:
                    h["max"] = value

    # ------------------------------------------------------------------
    def merge_ops(self, counter: OpCounter, prefix: str = "ops.") -> None:
        """Fold an :class:`OpCounter` into per-category ``ops.*`` counters."""
        for category, val in counter.counts.items():
            self.inc(prefix + category, val)

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) back in."""
        for name, val in snap.get("counters", {}).items():
            self.inc(name, val)
        for name, val in snap.get("gauges", {}).items():
            self.set_gauge(name, val)
        for name, h in snap.get("histograms", {}).items():
            with self._lock:
                mine = self._hists.get(name)
                if mine is None:
                    self._hists[name] = dict(h)
                else:
                    mine["count"] += h["count"]
                    mine["total"] += h["total"]
                    mine["min"] = min(mine["min"], h["min"])
                    mine["max"] = max(mine["max"], h["max"])

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly copy: ``{"counters", "gauges", "histograms"}``.

        Histograms gain a derived ``mean``; the registry keeps counting
        after a snapshot (snapshots are cheap copies, not resets).
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {**h, "mean": h["total"] / h["count"]}
                    for name, h in self._hists.items()
                },
            }

    def reset(self) -> None:
        """Drop every counter, gauge, and histogram."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()

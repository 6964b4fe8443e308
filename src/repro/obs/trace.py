"""Structured tracing: nestable spans, instants, and the ambient tracer.

The tracer records *spans* — named intervals with a monotonic start
timestamp, a duration, the recording process/thread id, and free-form
attributes — into a flat, preallocated event buffer.  Spans nest
lexically (``with tracer.span("eliminate", snode=k): ...``) but are
stored flat; nesting is reconstructed by the exporters (Chrome's
``trace_event`` viewer stacks overlapping same-``tid`` complete events
automatically).

Design constraints, in order:

1. **Zero overhead when disabled.**  ``apsp()`` without ``trace=`` uses
   the shared :data:`NULL_TRACER`, whose ``span()`` returns one reusable
   no-op context manager — no allocation, no clock read.  Hot call sites
   additionally guard attribute-dict construction with
   ``if tracer.enabled:``.  Coarse phases (:func:`phase`) still read
   the clock twice, since their seconds feed ``result.timings`` whether
   or not a tracer records the span.
2. **Low overhead when enabled.**  Events are appended to a
   preallocated list grown geometrically under a lock; each event is a
   :class:`SpanEvent` ``NamedTuple`` (no dict per event beyond ``args``).
3. **Cross-process mergeable.**  Timestamps come from
   :func:`time.perf_counter_ns`, which on Linux reads the system-wide
   ``CLOCK_MONOTONIC`` — comparable across the fork()ed workers of the
   process backend.  Workers trace into their own buffer and ship
   ``drain()``-ed events back in the task result; the coordinator
   :meth:`Tracer.merge`\\ s them, exactly like the fault-seed plumbing
   ships injection state the other way.

The *ambient* tracer (:func:`get_tracer` / :func:`use_tracer`) mirrors
the ambient-engine pattern in :mod:`repro.semiring.engine` so deep call
sites (kernels, retry loops) need no threading of tracer handles.
See ``docs/OBSERVABILITY.md`` for the span taxonomy.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Any, Iterator, NamedTuple

from repro.obs.metrics import MetricsRegistry, OpCounter


class SpanEvent(NamedTuple):
    """One trace event in Chrome ``trace_event``-compatible shape.

    ``ph`` is the phase: ``"X"`` (complete span, has ``dur``) or ``"i"``
    (instant).  ``ts``/``dur`` are in nanoseconds of the system-wide
    monotonic clock; exporters convert to microseconds.
    """

    name: str
    ph: str
    ts: int
    dur: int
    pid: int
    tid: int
    args: dict[str, Any]


class _Span:
    """Context manager recording one complete (``ph="X"``) event.

    Attributes added after entry via :meth:`set` (e.g. a retry outcome
    known only at exit) land in the event's ``args``.
    """

    __slots__ = ("_tracer", "_name", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, args: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._args = args
        self._start = 0

    def set(self, **attrs: Any) -> None:
        """Attach late attributes to the span (recorded at exit)."""
        self._args.update(attrs)

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        self._tracer._record(
            SpanEvent(self._name, "X", self._start, end - self._start,
                      os.getpid(), threading.get_ident(), self._args)
        )


class _NullSpan:
    """Reusable no-op span: the disabled-tracer fast path."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        """Ignore attributes."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Shares the :class:`Tracer` interface so call sites never branch
    (beyond optional ``if tracer.enabled`` guards around expensive
    attribute construction).  A single shared instance,
    :data:`NULL_TRACER`, is the ambient default.
    """

    enabled = False

    def __init__(self) -> None:
        self.metrics = _NULL_METRICS

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """Return the shared no-op context manager."""
        return _NULL_SPAN

    def instant(self, name: str, **attrs: Any) -> None:
        """Drop the instant event."""

    def metric_inc(self, name: str, value: float = 1) -> None:
        """Drop the metric increment."""

    def events(self) -> list[SpanEvent]:
        """Always empty."""
        return []

    def drain(self) -> list[SpanEvent]:
        """Always empty."""
        return []

    def merge(self, events: list[SpanEvent]) -> None:
        """Drop merged events."""

    @property
    def event_count(self) -> int:
        """Always zero."""
        return 0


class _NullMetrics(MetricsRegistry):
    """Metrics sink for :class:`NullTracer`: drops everything."""

    def inc(self, name: str, value: float = 1) -> None:  # noqa: D102
        pass

    def set_gauge(self, name: str, value: float) -> None:  # noqa: D102
        pass

    def observe(self, name: str, value: float) -> None:  # noqa: D102
        pass

    def merge_ops(self, counter: OpCounter, prefix: str = "ops.") -> None:  # noqa: D102
        pass

    def merge_snapshot(self, snap: dict[str, Any]) -> None:  # noqa: D102
        pass


_NULL_METRICS = _NullMetrics()

#: Shared disabled tracer — the ambient default.
NULL_TRACER = NullTracer()


class Tracer:
    """Buffering tracer: spans + instants + a metrics registry.

    Thread-safe: the etree-parallel thread backend records from many
    threads into one tracer.  For the process backend each worker owns
    its own tracer and the coordinator merges drained buffers.
    """

    enabled = True

    def __init__(self, capacity: int = 4096) -> None:
        self._lock = threading.Lock()
        self._buf: list[SpanEvent | None] = [None] * max(16, capacity)
        self._n = 0
        self.metrics = MetricsRegistry()

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _Span:
        """Open a nestable span; use as a context manager."""
        return _Span(self, name, attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration instant event (e.g. a retry, an
        autotuner decision)."""
        self._record(
            SpanEvent(name, "i", time.perf_counter_ns(), 0,
                      os.getpid(), threading.get_ident(), attrs)
        )

    def metric_inc(self, name: str, value: float = 1) -> None:
        """Shorthand for ``tracer.metrics.inc(name, value)``."""
        self.metrics.inc(name, value)

    def _record(self, event: SpanEvent) -> None:
        with self._lock:
            if self._n == len(self._buf):
                self._buf.extend([None] * len(self._buf))
            self._buf[self._n] = event
            self._n += 1

    # -- reading / merging ---------------------------------------------
    @property
    def event_count(self) -> int:
        """Number of buffered events."""
        return self._n

    def events(self) -> list[SpanEvent]:
        """Copy of all buffered events, in recording order."""
        with self._lock:
            return [e for e in self._buf[: self._n] if e is not None]

    def drain(self) -> list[SpanEvent]:
        """Return all buffered events and clear the buffer.

        Used by process-backend workers to ship their per-task events
        back to the coordinator.
        """
        with self._lock:
            out = [e for e in self._buf[: self._n] if e is not None]
            self._n = 0
            return out

    def merge(self, events: list) -> None:
        """Append events drained from another tracer (worker buffers
        arrive as pickled tuples; they are re-wrapped as
        :class:`SpanEvent`)."""
        with self._lock:
            for ev in events:
                if not isinstance(ev, SpanEvent):
                    ev = SpanEvent(*ev)
                if self._n == len(self._buf):
                    self._buf.extend([None] * len(self._buf))
                self._buf[self._n] = ev
                self._n += 1

    def clear(self) -> None:
        """Drop all buffered events (metrics are kept)."""
        with self._lock:
            self._n = 0

    # -- summaries -----------------------------------------------------
    def span_stats(self) -> dict[str, dict[str, float]]:
        """Aggregate complete spans by name: count/total/mean/max (ns)."""
        stats: dict[str, dict[str, float]] = {}
        for ev in self.events():
            if ev.ph != "X":
                continue
            s = stats.setdefault(
                ev.name, {"count": 0, "total_ns": 0, "max_ns": 0}
            )
            s["count"] += 1
            s["total_ns"] += ev.dur
            if ev.dur > s["max_ns"]:
                s["max_ns"] = ev.dur
        for s in stats.values():
            s["mean_ns"] = s["total_ns"] / s["count"]
        return stats

    def meta_snapshot(self) -> dict[str, Any]:
        """The ``APSPResult.meta["obs"]`` payload: metrics + span stats."""
        snap = self.metrics.snapshot()
        snap["spans"] = self.span_stats()
        snap["events"] = self.event_count
        return snap


class _Phase(_Span):
    """A :class:`_Span` that also adds its seconds to ``timings[key]``.

    One pair of clock reads times the phase: the interval lands in the
    ``timings`` dict (seconds, accumulated) and, when the tracer is
    enabled, is recorded as one complete span of the same start and
    duration — so a phase's timing and its span cannot disagree.
    """

    __slots__ = ("_timings", "_key")

    def __init__(self, timings: dict[str, float], key: str,
                 tracer: "Tracer | NullTracer", name: str,
                 args: dict[str, Any]):
        super().__init__(tracer, name, args)
        self._timings = timings
        self._key = key

    def __exit__(self, *exc) -> None:
        dur = time.perf_counter_ns() - self._start
        self._timings[self._key] = self._timings.get(self._key, 0.0) + dur / 1e9
        if self._tracer.enabled:
            self._tracer._record(
                SpanEvent(self._name, "X", self._start, dur,
                          os.getpid(), threading.get_ident(), self._args)
            )


def phase(
    timings: dict[str, float], key: str, span: str | None = None, **attrs: Any
) -> _Phase:
    """Time one phase into ``timings[key]`` and the ambient tracer.

    The one clock behind every ``result.timings`` / ``plan.timings``
    entry: the phase's seconds are added under ``key``, and an enabled
    ambient tracer records the same interval as a span named ``span``
    (default: ``key``) with ``attrs``.  A key timed more than once (the
    sweep permutes in and out) accumulates, so ``timings[key]`` is the
    summed duration of its spans.
    """
    return _Phase(timings, key, _ambient, span or key, attrs)


# -- ambient tracer ----------------------------------------------------
# Process-global (all threads see it), matching the ambient engine in
# repro.semiring.engine: the threaded SuperFW executor's workers must
# record into the same tracer the coordinator installed.  Tracer itself
# is thread-safe.
_ambient_lock = threading.Lock()
_ambient: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """Return the ambient tracer (default: the shared :data:`NULL_TRACER`)."""
    return _ambient


def set_tracer(tracer: Tracer | NullTracer | None) -> None:
    """Install ``tracer`` as the ambient tracer (``None`` → disabled)."""
    global _ambient
    with _ambient_lock:
        _ambient = tracer if tracer is not None else NULL_TRACER


@contextlib.contextmanager
def use_tracer(tracer: Tracer | NullTracer | None) -> Iterator[Tracer | NullTracer]:
    """Temporarily install ``tracer`` as the ambient tracer."""
    prev = get_tracer()
    set_tracer(tracer)
    try:
        yield get_tracer()
    finally:
        set_tracer(prev)


def coerce_tracer(trace: Any) -> tuple[Tracer | NullTracer, str | None]:
    """Normalise an ``apsp(trace=...)`` argument.

    Returns ``(tracer, out_path)``: ``trace=True`` → fresh enabled
    tracer; a string/path → fresh tracer plus a Chrome-trace output
    path; an existing tracer is passed through; falsy → disabled.
    """
    if isinstance(trace, (Tracer, NullTracer)):
        return trace, None
    if isinstance(trace, (str, os.PathLike)):
        return Tracer(), os.fspath(trace)
    if trace:
        return Tracer(), None
    return NULL_TRACER, None

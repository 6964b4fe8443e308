"""Structured observability: tracing, metrics, and trace exporters.

``repro.obs`` is the zero-dependency instrumentation layer threaded
through every stage of a solve — plan analysis (:mod:`repro.plan`),
per-supernode elimination in the SuperFW solvers (:mod:`repro.core`),
min-plus GEMM calls (:mod:`repro.semiring.engine`), and the
retry/fallback machinery (:mod:`repro.resilience`).  It deliberately
imports nothing else from ``repro`` so any layer can import it without
cycles.

Entry points:

* ``apsp(graph, trace=True)`` / ``apsp(graph, trace="out.json")`` —
  trace one solve; summary lands in ``result.meta["obs"]``.
* :func:`use_tracer` — install an ambient :class:`Tracer` around any
  block of repro calls.
* :func:`phase` — time one coarse phase into a ``timings`` dict and,
  when tracing, the same interval as a span.
* :func:`write_chrome_trace` / :func:`write_csv` /
  :func:`flame_summary` — export the buffered spans.
* ``repro trace --graph grid2d --out trace.json`` — CLI one-shot.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and a Perfetto
walkthrough.
"""

from repro.obs.export import (
    CHROME_REQUIRED_KEYS,
    chrome_trace_events,
    flame_summary,
    write_chrome_trace,
    write_csv,
)
from repro.obs.metrics import MetricsRegistry, OpCounter
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SpanEvent,
    Tracer,
    coerce_tracer,
    get_tracer,
    phase,
    set_tracer,
    use_tracer,
)

__all__ = [
    "CHROME_REQUIRED_KEYS",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OpCounter",
    "SpanEvent",
    "Tracer",
    "chrome_trace_events",
    "coerce_tracer",
    "flame_summary",
    "get_tracer",
    "phase",
    "set_tracer",
    "use_tracer",
    "write_chrome_trace",
    "write_csv",
]

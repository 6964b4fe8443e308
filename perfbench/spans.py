"""In-memory spans recorded by the benchmark around calls into the library.

The library itself is not instrumented: every span here wraps a call
the benchmark makes into one layer's public function.  A span records
its name, start and end (``perf_counter`` seconds), the span that
enclosed it, the op it belongs to, and free-form attributes (op counts,
router decisions).  A layer's self time is its duration minus the part
its direct children cover.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    source: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class SpanLog:
    """Append-only span store; ``span()`` nests through an explicit stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1
        self.source = ""

    @contextmanager
    def span(self, name: str, **attrs: Any):
        rec = Span(
            name=name,
            start=0.0,
            parent=self._stack[-1] if self._stack else -1,
            op=self.op,
            source=self.source,
            attrs=attrs,
        )
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def named(self, name: str, source: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (source is None or s.source == source)
        ]

    def self_ms(self) -> list[float]:
        """Self time of every span, in milliseconds, indexed like ``spans``."""
        out = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.ms
        return out

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {
                "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "op": s.op, "source": s.source,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]

"""The ``method="auto"`` fallback chain: solve, verify, escalate.

Runs an ordered chain of backends — ``superfw → dijkstra → blocked-fw →
dense-fw`` by default, with the Dijkstra family skipped when any weight is
negative (so the negative-weight chain is superfw → blocked → dense).
Every candidate result is re-verified with the independent
:func:`~repro.graphs.validation.check_apsp_certificate`; a failed or
rejected attempt escalates to the next backend.  The full attempt trail
is recorded in ``APSPResult.meta["attempts"]``.

Diversity is deliberate: SuperFW, blocked FW, and the certificate share no
hot-loop code with Dijkstra, and the final dense Floyd-Warshall uses its
own inline sweep rather than the blocked kernel library — so a fault (real
or injected) in one layer cannot take down the whole chain.

:class:`BudgetExceededError` and :class:`NegativeCycleError` are *not*
swallowed by escalation: a blown budget must abort promptly, and no
backend can fix a negative cycle.  One budget tracker is shared across
the whole chain, so retries cannot restart the clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.obs import get_tracer
from repro.resilience.budget import BudgetTracker, SolveBudget, as_tracker

if TYPE_CHECKING:  # avoid a circular import at package-init time
    from repro.core.result import APSPResult
    from repro.graphs.graph import Graph
from repro.resilience.errors import (
    BudgetExceededError,
    FallbackExhaustedError,
    NegativeCycleError,
    ReproError,
)

#: Backends that require non-negative weights.
DIJKSTRA_FAMILY = frozenset({"dijkstra", "boost-dijkstra", "delta-stepping"})

#: Default escalation order for ``apsp(graph, method="auto")``.
DEFAULT_CHAIN: tuple[str, ...] = ("superfw", "dijkstra", "blocked-fw", "dense-fw")

#: Option names each backend understands; everything else is dropped so a
#: SuperFW-specific knob does not crash the dense fallback.
_METHOD_OPTIONS: dict[str, frozenset[str]] = {
    "superfw": frozenset(
        {"plan", "dtype", "ordering", "leaf_size", "seed", "reduce"}
    ),
    "superbfs": frozenset(
        {"plan", "dtype", "leaf_size", "seed", "reduce"}
    ),
    "parallel-superfw": frozenset(
        {"plan", "num_workers", "backend", "etree_parallel", "ordering",
         "leaf_size", "seed", "reduce"}
    ),
    "blocked-fw": frozenset({"plan", "block_size"}),
    "dense-fw": frozenset({"track_via", "check_negative_cycle"}),
    "dijkstra": frozenset(),
    "boost-dijkstra": frozenset(),
    "delta-stepping": frozenset({"delta"}),
    "johnson": frozenset(),
    "path-doubling": frozenset(),
}

#: Backends that accept a ``budget=`` keyword.
_BUDGETED = frozenset(
    {"superfw", "superbfs", "parallel-superfw", "blocked-fw", "dense-fw",
     "dijkstra", "boost-dijkstra", "delta-stepping"}
)


@dataclass
class Attempt:
    """One entry of the fallback trail."""

    method: str
    status: str  # "ok" | "failed" | "rejected" | "skipped"
    seconds: float = 0.0
    error: str | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly form stored in ``APSPResult.meta['attempts']``."""
        out: dict[str, Any] = {"method": self.method, "status": self.status,
                               "seconds": self.seconds}
        if self.error is not None:
            out["error"] = self.error
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


def solve_with_fallback(
    graph: Graph,
    *,
    chain: Sequence[str] | None = None,
    budget: SolveBudget | BudgetTracker | float | None = None,
    verify: bool = True,
    **options,
) -> APSPResult:
    """Run the fallback chain and return the first verified result.

    Parameters
    ----------
    chain:
        Backend names (keys of :func:`repro.core.api.available_methods`)
        tried in order; defaults to :data:`DEFAULT_CHAIN`.
    budget:
        A :class:`SolveBudget` (or seconds / started tracker) shared by
        the *whole* chain.
    verify:
        Re-check each candidate with the APSP certificate before
        accepting it (on by default — this is what makes silent kernel
        corruption recoverable).
    options:
        Forwarded to each backend, filtered to the keywords it accepts.

    Raises
    ------
    FallbackExhaustedError
        When every backend failed, was rejected, or was skipped; carries
        the attempt trail.
    """
    from repro.core.api import _METHODS  # local import: api imports us
    from repro.graphs.validation import check_apsp_certificate

    if chain is None:
        chain = DEFAULT_CHAIN
    unknown = [m for m in chain if m not in _METHODS or m == "auto"]
    if unknown:
        raise ValueError(f"unknown methods in fallback chain: {unknown}")
    tracker = as_tracker(budget)
    negative = bool(graph.weights.size) and float(graph.weights.min()) < 0
    trail: list[Attempt] = []

    def finish(result: APSPResult) -> APSPResult:
        result.meta["attempts"] = [a.as_dict() for a in trail]
        result.meta["fallback_chain"] = list(chain)
        return result

    tracer = get_tracer()
    for method in chain:
        if method in DIJKSTRA_FAMILY and negative:
            trail.append(
                Attempt(method, "skipped", error="graph has negative weights")
            )
            tracer.instant("fallback-skip", method=method)
            continue
        opts = {k: v for k, v in options.items()
                if k in _METHOD_OPTIONS.get(method, frozenset())}
        if tracker is not None:
            tracker.check(where=f"fallback:{method}")
            if method in _BUDGETED:
                opts["budget"] = tracker
        start = time.perf_counter()
        # The span closes on every exit path; its status attribute is
        # set just before each one, so the trace shows which rung of the
        # chain failed, was rejected by the certificate, or won.
        with tracer.span("fallback", method=method) as fb_span:
            try:
                result = _METHODS[method](graph, **opts)
            except (BudgetExceededError, NegativeCycleError) as exc:
                trail.append(
                    Attempt(method, "failed", time.perf_counter() - start,
                            f"{type(exc).__name__}: {exc}")
                )
                fb_span.set(status="failed", error=type(exc).__name__)
                if isinstance(exc, BudgetExceededError):
                    exc.progress.setdefault(
                        "attempts", [a.as_dict() for a in trail]
                    )
                raise
            except ReproError as exc:
                trail.append(
                    Attempt(method, "failed", time.perf_counter() - start,
                            f"{type(exc).__name__}: {exc}")
                )
                fb_span.set(status="failed", error=type(exc).__name__)
                tracer.metrics.inc("fallback.failed")
                continue
            elapsed = time.perf_counter() - start
            detail: dict[str, Any] = {}
            if "recovery" in result.meta:
                detail["recovery"] = result.meta["recovery"]
            if verify:
                try:
                    if np.isnan(result.dist).any():
                        raise AssertionError("distances contain NaN")
                    check_apsp_certificate(graph, result.dist)
                except AssertionError as exc:
                    trail.append(
                        Attempt(method, "rejected", elapsed,
                                f"certificate: {exc}", detail)
                    )
                    fb_span.set(status="rejected")
                    tracer.metrics.inc("fallback.rejected")
                    continue
            trail.append(Attempt(method, "ok", elapsed, detail=detail))
            fb_span.set(status="ok")
        return finish(result)
    raise FallbackExhaustedError(
        f"all {len(list(chain))} backends in the fallback chain failed: "
        + "; ".join(f"{a.method}={a.status}" for a in trail),
        trail=[a.as_dict() for a in trail],
    )

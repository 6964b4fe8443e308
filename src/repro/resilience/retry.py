"""Retry-with-backoff for per-supernode elimination tasks.

Re-running a failed supernode elimination is exact because tasks are
*transactional*: :func:`repro.core.superfw.eliminate_supernode` computes
on private copies and writes the distance matrix only after its last
kernel, so a failed attempt leaves the matrix untouched and the retry
sees exactly the inputs the first attempt saw.  (NaN corruption is the
exception — a corrupted kernel still commits — which is why the
fallback layer re-verifies results with the APSP certificate instead of
trusting retries alone.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.obs import get_tracer
from repro.resilience.errors import BudgetExceededError, ReproError

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-run a failed task and how long to wait.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first (``1`` disables retry).
    backoff_seconds:
        Sleep before the first retry; ``0`` retries immediately (the
        default — suitable for in-process tasks where the failure is not
        load-induced).
    backoff_factor:
        Multiplier applied to the sleep after each failed attempt.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.0
    backoff_factor: float = 2.0

    def delay_before(self, attempt: int) -> float:
        """Sleep before attempt ``attempt`` (2-based; 0 for the first)."""
        if attempt <= 1 or self.backoff_seconds <= 0:
            return 0.0
        return self.backoff_seconds * self.backoff_factor ** (attempt - 2)


DEFAULT_TASK_RETRY = RetryPolicy(max_attempts=3, backoff_seconds=0.0)


def call_with_retry(
    fn: Callable[[int], T],
    policy: RetryPolicy = DEFAULT_TASK_RETRY,
    *,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[T, int]:
    """Run ``fn(attempt)`` until it succeeds or attempts are exhausted.

    ``fn`` receives the 1-based attempt number (fault-injection draws are
    keyed on it, so each retry is an independent trial).  Returns
    ``(result, attempts_used)``.  :class:`BudgetExceededError` is never
    retried — a blown budget must abort the whole solve promptly.  The
    last failure is re-raised when every attempt fails.
    """
    attempts = max(1, int(policy.max_attempts))
    last: BaseException | None = None
    for attempt in range(1, attempts + 1):
        delay = policy.delay_before(attempt)
        if delay > 0:
            sleep(delay)
        try:
            return fn(attempt), attempt
        except BudgetExceededError:
            raise
        except ReproError as exc:
            last = exc
            tracer = get_tracer()
            if tracer.enabled:
                tracer.metrics.inc("retries.caught")
                tracer.instant(
                    "retry",
                    attempt=attempt,
                    error=type(exc).__name__,
                    exhausted=attempt >= attempts,
                )
    assert last is not None
    raise last

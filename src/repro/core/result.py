"""Common result container for every APSP algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs.metrics import OpCounter
from repro.util.timing import TimingBreakdown


@dataclass
class APSPResult:
    """Output of an APSP computation.

    Attributes
    ----------
    dist:
        ``(n, n)`` matrix of shortest-path lengths *in the original vertex
        numbering* (any internal reordering has been undone).
    method:
        Identifier of the producing algorithm.
    timings:
        Phase timing breakdown (ordering / symbolic / solve / ...).
    ops:
        Scalar semiring operation counts where the algorithm tracks them.
    meta:
        Free-form extras (plan objects, parameters, schedules, ...).
    """

    dist: np.ndarray
    method: str
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)
    ops: OpCounter = field(default_factory=OpCounter)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.dist.shape[0]

    def solve_seconds(self) -> float:
        """Seconds in the numeric solve phase (excludes pre-processing).

        The paper excludes ordering/symbolic time from the reported solve
        numbers (§5.1.4); benchmarks use this accessor for comparability.
        """
        return self.timings.phases.get("solve", self.timings.total)

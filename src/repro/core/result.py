"""Common result container for every APSP algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.obs.metrics import OpCounter


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
        Seconds per phase (ordering / symbolic / solve / ...), each the
        summed duration of that phase's :func:`repro.obs.phase` spans.
    ops:
        Scalar semiring operation counts where the algorithm tracks them.
    meta:
        Free-form extras (plan objects, parameters, schedules, ...).
    """

    dist: np.ndarray
    method: str
    timings: dict[str, float] = field(default_factory=dict)
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
        return self.timings.get("solve", sum(self.timings.values()))

"""Analytic work/depth/concurrency models (paper §4, Table 2).

Each :class:`AlgoModel` encodes one row of Table 2 as callables of
``(n, m, s)`` — vertices, edges, and top-level separator size.  The
Table 2 benchmark evaluates these against the *measured* operation counts
and critical-path lengths of the implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.symbolic.structure import SupernodalStructure, superfw_snode_ops


def _log2(x: float) -> float:
    return float(np.log2(max(x, 2.0)))


@dataclass(frozen=True)
class AlgoModel:
    """Asymptotic work and depth of one algorithm (Table 2 row)."""

    name: str
    work: Callable[[float, float, float], float]
    depth: Callable[[float, float, float], float]

    def concurrency(self, n: float, m: float, s: float) -> float:
        """Average available parallelism ``C = W / D``."""
        return self.work(n, m, s) / max(self.depth(n, m, s), 1.0)


#: The four rows of Table 2 (constants dropped, as in the paper).
TABLE2_MODELS: list[AlgoModel] = [
    AlgoModel("BlockedFw", lambda n, m, s: n**3, lambda n, m, s: n),
    AlgoModel(
        "SuperFw",
        lambda n, m, s: n**2 * s,
        lambda n, m, s: s * _log2(n) ** 2,
    ),
    AlgoModel(
        "Dijkstra",
        lambda n, m, s: n**2 * _log2(n) + n * m,
        lambda n, m, s: n * _log2(n) + m,
    ),
    AlgoModel(
        "PathDoubling",
        lambda n, m, s: n**3 * _log2(n),
        lambda n, m, s: _log2(n),
    ),
]


def concurrency(work: float, depth: float) -> float:
    """``C(n) = W(n) / D(n)`` (paper Eq. 5)."""
    return work / max(depth, 1.0)


def superfw_measured_work(structure: SupernodalStructure) -> float:
    """Total scalar ops of a SuperFW sweep, from the symbolic structure."""
    return float(superfw_snode_ops(structure).sum())


def superfw_measured_depth(structure: SupernodalStructure) -> float:
    """Critical path of the level-synchronous SuperFW DAG, in kernel steps.

    A supernode of width ``b`` takes ``3 b`` steps (DiagUpdate,
    PanelUpdate and OuterUpdate each pivot ``b`` times; the two panels
    run concurrently).  Per level the depth is the maximum supernode
    depth (cousins run in parallel); levels are barriers, so depths add —
    the empirical counterpart of Eq. (4)'s
    ``Σ_i i · S(n/2^i) = O(|S| log^2 n)``.
    """
    widths = np.diff(structure.snode_ptr)
    return float(
        sum(3 * int(widths[group].max()) for group in structure.level_order()
            if group.size)
    )

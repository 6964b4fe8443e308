"""Pre-processing vs numeric-solve profiling (paper §5.1.4).

The paper reports that ordering + symbolic analysis (done by METIS,
single-threaded) costs at worst 18% of the multithreaded SuperFW solve and
is therefore excluded from the performance plots.  :func:`profile_superfw`
measures the same breakdown for this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.graph import Graph


@dataclass
class PreprocessingReport:
    """Phase breakdown of one SuperFW run."""

    name: str
    ordering_seconds: float
    symbolic_seconds: float
    solve_seconds: float

    @property
    def preprocessing_seconds(self) -> float:
        return self.ordering_seconds + self.symbolic_seconds

    @property
    def overhead_fraction(self) -> float:
        """Pre-processing as a fraction of the numeric solve."""
        return self.preprocessing_seconds / max(self.solve_seconds, 1e-12)

    def row(self) -> dict:
        """Flat dict for the experiment tables."""
        return {
            "name": self.name,
            "ordering_s": self.ordering_seconds,
            "symbolic_s": self.symbolic_seconds,
            "solve_s": self.solve_seconds,
            "overhead_pct": 100.0 * self.overhead_fraction,
        }


def profile_superfw(
    graph: Graph, *, name: str = "graph", seed: int = 0, **plan_options
) -> PreprocessingReport:
    """Measure ordering/symbolic/solve seconds of one SuperFW run."""
    from repro.core.superfw import superfw  # avoid import cycle
    from repro.plan import analyze

    plan = analyze(graph, seed=seed, **plan_options)
    result = superfw(graph, plan=plan)
    return PreprocessingReport(
        name=name,
        ordering_seconds=plan.timings.get("ordering", 0.0),
        symbolic_seconds=plan.timings.get("symbolic", 0.0),
        solve_seconds=result.timings.get("solve", 0.0),
    )

"""Instrumentation: operation counters, structural stats, profiling."""

from repro.obs.metrics import OpCounter
from repro.analysis.metrics import (
    betweenness_centrality,
    center_vertices,
    closeness_centrality,
    diameter,
    eccentricity,
    harmonic_centrality,
    radius,
)
from repro.analysis.stats import fill_statistics, ordering_quality, suite_row
from repro.analysis.profiling import PreprocessingReport, profile_superfw

__all__ = [
    "OpCounter",
    "PreprocessingReport",
    "betweenness_centrality",
    "center_vertices",
    "closeness_centrality",
    "diameter",
    "eccentricity",
    "fill_statistics",
    "harmonic_centrality",
    "ordering_quality",
    "profile_superfw",
    "radius",
    "suite_row",
]

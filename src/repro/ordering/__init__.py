"""Fill-in reducing orderings (paper §3.1-§3.2).

The centerpiece is :func:`nested_dissection`, a from-scratch multilevel
implementation of the METIS/Scotch pipeline the paper relies on: heavy-edge
coarsening, BFS-grown initial bisection, Fiduccia-Mattheyses refinement, and
König minimum-vertex-cover separators.  BFS (for the SuperBFS baseline),
reverse Cuthill-McKee, and minimum-degree orderings round out the toolbox.
"""

from repro.ordering.base import Ordering
from repro.ordering.bfs import bfs_ordering, rcm_ordering
from repro.ordering.amd import amd_ordering, minimum_degree_ordering
from repro.ordering.geometric import geometric_nested_dissection
from repro.ordering.nested_dissection import (
    NDResult,
    SeparatorNode,
    nested_dissection,
)
from repro.ordering.partition import bisect_graph
from repro.ordering.reduce import (
    AppliedReduction,
    ReductionTrail,
    auto_keeps,
    build_trail,
    reduce_graph,
)
from repro.ordering.separator import vertex_separator_from_bisection

__all__ = [
    "AppliedReduction",
    "NDResult",
    "Ordering",
    "ReductionTrail",
    "SeparatorNode",
    "amd_ordering",
    "auto_keeps",
    "bfs_ordering",
    "bisect_graph",
    "build_trail",
    "geometric_nested_dissection",
    "minimum_degree_ordering",
    "nested_dissection",
    "rcm_ordering",
    "reduce_graph",
    "vertex_separator_from_bisection",
]

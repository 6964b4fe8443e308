"""Symbolic analysis (paper §3.3).

Everything sparse Cholesky computes before touching numbers, retargeted at
the min-plus distance matrix: the elimination tree, the exact fill pattern
("which ∞ entries become finite, and when"), fundamental supernodes and
their cost-law amalgamation, the supernodal block structure with
ancestor/descendant sets, and the etree level schedule that drives
parallelism.
"""

from repro.symbolic.etree import (
    elimination_tree,
    etree_children,
    etree_levels,
    is_postordered,
    postorder,
)
from repro.symbolic.fill import SymbolicFactor, symbolic_cholesky
from repro.symbolic.supernodes import amalgamate, find_supernodes
from repro.symbolic.structure import SupernodalStructure, build_structure

__all__ = [
    "amalgamate",
    "SupernodalStructure",
    "SymbolicFactor",
    "build_structure",
    "elimination_tree",
    "etree_children",
    "etree_levels",
    "find_supernodes",
    "is_postordered",
    "postorder",
    "symbolic_cholesky",
]

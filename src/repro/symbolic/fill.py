"""Symbolic Cholesky factorization: the exact fill pattern.

In the min-plus world, "fill-in" is an ``∞`` entry of the distance matrix
that becomes finite during elimination of earlier vertices (paper Fig. 3).
The pattern of finite entries at elimination time equals the Cholesky fill
pattern of the permuted adjacency structure, so the standard up-looking
symbolic factorization applies verbatim.

The per-column structure is computed by the classic merge:
``struct(j) = adj+(j) ∪ ( ∪_{c child of j} struct(c) \\ {c} )``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.symbolic.etree import elimination_tree, etree_children
from repro.util.perm import check_permutation, invert_permutation


@dataclass
class SymbolicFactor:
    """Result of symbolic factorization under a fixed ordering.

    Attributes
    ----------
    parent:
        Elimination-tree parent array (new labels).
    col_struct:
        ``col_struct[j]`` — sorted row indices ``i > j`` with ``L[i,j] ≠ 0``
        (i.e. ``Dist[i,j]`` finite when column ``j`` is eliminated).
    col_counts:
        ``len(col_struct[j])`` for each column.
    nnz_factor:
        Total below-diagonal nonzeros of the factor.
    fill_in:
        Entries of the factor not present in the original pattern.
    """

    parent: np.ndarray
    col_struct: list[np.ndarray]
    col_counts: np.ndarray
    nnz_factor: int
    fill_in: int

    @property
    def n(self) -> int:
        return self.parent.shape[0]


def symbolic_cholesky(
    graph: Graph,
    perm: np.ndarray | None = None,
    *,
    parent: np.ndarray | None = None,
) -> SymbolicFactor:
    """Compute the exact fill structure of ``graph`` under ``perm``.

    Works for *any* permutation: the etree's parents are higher-numbered
    than their children by construction, so the ascending column sweep
    always sees children before parents.  ``parent`` is the etree of
    ``graph`` under ``perm`` when the caller already has it — ``analyze``
    relabels one etree by its postorder instead of computing a second.
    """
    n = graph.n
    if perm is None:
        perm = np.arange(n, dtype=np.int64)
    else:
        check_permutation(perm, n)
        perm = np.asarray(perm, dtype=np.int64)
    iperm = invert_permutation(perm)
    if parent is None:
        parent = elimination_tree(graph, perm)
    children = etree_children(parent)
    col_struct: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    col_counts = np.zeros(n, dtype=np.int64)
    original_lower = 0
    # Ascending column sweep: children are finished before their parent.
    marker = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        marker[j] = j
        rows: list[int] = []
        neigh_new = iperm[graph.neighbors(perm[j])]
        for i in neigh_new:
            if i > j and marker[i] != j:
                marker[i] = j
                rows.append(int(i))
        original_lower += len(rows)
        for c in children[j]:
            for i in col_struct[c]:
                if i > j and marker[i] != j:
                    marker[i] = j
                    rows.append(int(i))
        struct = np.asarray(sorted(rows), dtype=np.int64)
        col_struct[j] = struct
        col_counts[j] = struct.shape[0]
    nnz_factor = int(col_counts.sum())
    return SymbolicFactor(
        parent=parent,
        col_struct=col_struct,
        col_counts=col_counts,
        nnz_factor=nnz_factor,
        fill_in=nnz_factor - original_lower,
    )

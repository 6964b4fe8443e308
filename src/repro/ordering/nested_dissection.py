"""Recursive nested dissection (paper §3.2, Fig. 4).

At every level a balanced vertex separator ``S`` splits the vertices into
``C1 ∪ S ∪ C2`` with no ``C1``–``C2`` edges; ``C1`` and ``C2`` are ordered
recursively and ``S`` is numbered last.  The resulting separator tree also
drives the Table 3 statistic ``n / |S|`` and the work model of §4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.graphs.components import connected_components
from repro.graphs.graph import Graph
from repro.obs import get_tracer
from repro.ordering.base import Ordering
from repro.ordering.partition import bisect_graph
from repro.ordering.separator import vertex_separator_from_bisection

#: A bisector maps (subgraph, original ids) to a 0/1 side array.
Bisector = Callable[[Graph, np.ndarray], np.ndarray]


@dataclass
class SeparatorNode:
    """One node of the separator tree.

    The subtree owns positions ``[lo, hi)`` of the new ordering; the
    separator itself occupies the trailing ``[hi - sep_size, hi)``
    positions (the whole range for leaves, where ``sep_size == hi - lo``).
    """

    lo: int
    hi: int
    sep_size: int
    children: list["SeparatorNode"] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Vertices in the whole subtree."""
        return self.hi - self.lo

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def height(self) -> int:
        """Edge-height of the subtree (leaves have height 0)."""
        return 0 if self.is_leaf else 1 + max(c.height() for c in self.children)

    def iter_nodes(self):
        """Yield every node, children before parents (postorder)."""
        for child in self.children:
            yield from child.iter_nodes()
        yield self


@dataclass
class NDResult:
    """Nested-dissection output: the ordering plus the separator tree."""

    ordering: Ordering
    tree: SeparatorNode

    @property
    def perm(self) -> np.ndarray:
        return self.ordering.perm

    @property
    def top_separator_size(self) -> int:
        """``|S|`` of the top level — the paper's headline cost parameter."""
        node = self.tree
        # The top *separator* is the first node with a genuine split; a
        # disconnected root has sep_size 0 and its children are the splits.
        while node.sep_size == 0 and node.children:
            node = max(node.children, key=lambda c: c.size)
        return node.sep_size if not node.is_leaf else node.size

    def separator_sizes_by_level(self) -> list[list[int]]:
        """Separator sizes grouped by depth from the root."""
        out: list[list[int]] = []

        def visit(node: SeparatorNode, depth: int) -> None:
            while len(out) <= depth:
                out.append([])
            out[depth].append(node.sep_size if not node.is_leaf else node.size)
            for child in node.children:
                visit(child, depth + 1)

        visit(self.tree, 0)
        return out


def _default_bisector(balance_tol: float, seed: int) -> Bisector:
    def bisector(sub: Graph, ids: np.ndarray) -> np.ndarray:
        del ids
        return bisect_graph(sub, balance_tol=balance_tol, seed=seed)

    return bisector


def nested_dissection(
    graph: Graph,
    *,
    leaf_size: int = 32,
    balance_tol: float = 0.15,
    seed: int = 0,
    bisector: Bisector | None = None,
) -> NDResult:
    """Compute a nested-dissection ordering and its separator tree.

    Parameters
    ----------
    graph:
        Input undirected graph.
    leaf_size:
        Subgraphs at or below this size are ordered as leaves.
    balance_tol:
        Balance tolerance handed to the bisector.
    seed:
        Seeds the multilevel partitioner.
    bisector:
        Optional custom ``(subgraph, ids) -> side`` bisector (used by
        :func:`~repro.ordering.geometric.geometric_nested_dissection`).

    With a tracer installed, every separator extraction records an
    ``ordering.separator`` span carrying the subgraph size ``n`` and the
    separator ``size``.
    """
    if bisector is None:
        bisector = _default_bisector(balance_tol, seed)
    tracer = get_tracer()
    order: list[int] = []

    def dissect(sub: Graph, ids: np.ndarray, offset: int) -> SeparatorNode:
        n = ids.shape[0]
        if n <= leaf_size:
            order.extend(ids.tolist())
            return SeparatorNode(lo=offset, hi=offset + n, sep_size=n)
        ncomp, labels = connected_components(sub)
        if ncomp > 1:
            children = []
            pos = offset
            for c in range(ncomp):
                local = np.flatnonzero(labels == c)
                child = dissect(sub.subgraph(local), ids[local], pos)
                pos = child.hi
                children.append(child)
            return SeparatorNode(
                lo=offset, hi=offset + n, sep_size=0, children=children
            )
        side = np.asarray(bisector(sub, ids))
        with tracer.span("ordering.separator", n=n) as span:
            sep_local = vertex_separator_from_bisection(sub, side)
            span.set(size=int(sep_local.shape[0]))
        in_sep = np.zeros(n, dtype=bool)
        in_sep[sep_local] = True
        c1_local = np.flatnonzero((side == 0) & ~in_sep)
        c2_local = np.flatnonzero((side == 1) & ~in_sep)
        if c1_local.size == 0 or c2_local.size == 0 or in_sep.all():
            # Degenerate split (dense core / stalled partitioner): leaf out.
            order.extend(ids.tolist())
            return SeparatorNode(lo=offset, hi=offset + n, sep_size=n)
        left = dissect(sub.subgraph(c1_local), ids[c1_local], offset)
        right = dissect(sub.subgraph(c2_local), ids[c2_local], left.hi)
        order.extend(ids[sep_local].tolist())
        return SeparatorNode(
            lo=offset,
            hi=offset + n,
            sep_size=int(sep_local.shape[0]),
            children=[left, right],
        )

    tree = dissect(graph, np.arange(graph.n, dtype=np.int64), 0)
    perm = np.asarray(order, dtype=np.int64)
    ordering = Ordering(
        perm=perm,
        method="nd",
        stats={
            "leaf_size": leaf_size,
            "tree_height": tree.height(),
        },
    )
    return NDResult(ordering=ordering, tree=tree)

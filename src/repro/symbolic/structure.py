"""Supernodal block structure with ancestor/descendant sets (paper §3.3-3.4).

:class:`SupernodalStructure` is the object the SuperFW sweep walks: for each
supernode it serves the column range, the descendant set ``D(k)``, and the
ancestor set ``A(k)``, clipped to the exact symbolic fill rows (never
larger than Algorithm 3's literal etree ancestor chain, often much
smaller, and provably sufficient because a finite ``Dist[i,k]`` at step
``k`` with ``i > k`` implies ``(i,k)`` is in the filled pattern).

Every plan ``analyze`` builds is postordered, so ``D(s)`` is the one
supernode range ``[first_desc[s], s)`` and ``A(s)`` a few ancestor
ranges.  :meth:`SupernodalStructure.row_runs` serves ``D(s) ++ A(s)`` as
contiguous column runs, which the sweep moves with slice copies.  A
structure that is not postordered (an older plan file, a hand-built
structure) gets exact runs too — more of them, so it solves slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.symbolic.etree import etree_levels
from repro.symbolic.fill import SymbolicFactor
from repro.symbolic.supernodes import (
    find_supernodes,
    supernode_parents,
    sweep_ops,
)

#: One contiguous piece of a supernode's update rows: block rows
#: ``[offset, offset + stop - start)`` are matrix columns ``[start, stop)``.
Run = tuple[int, int, int]


class RowRuns(NamedTuple):
    """``D(s) ++ A(s)`` of one supernode as contiguous column runs.

    ``desc`` and ``anc`` carry offsets within ``D(s)`` and ``A(s)``;
    ``rows`` is both, with ``anc`` shifted by ``nd``, in the panel order
    the sweep uses (``D(s)`` first).
    """

    desc: tuple[Run, ...]
    anc: tuple[Run, ...]
    rows: tuple[Run, ...]
    nd: int
    na: int


@dataclass
class SupernodalStructure:
    """Block layout of the permuted distance matrix.

    Attributes
    ----------
    snode_ptr:
        Supernode ``s`` owns contiguous columns ``[snode_ptr[s], snode_ptr[s+1])``.
    snode_of:
        Column → supernode map.
    parent:
        Supernodal etree parent array (-1 for roots).
    children:
        Children lists of the supernodal etree.
    levels:
        Bottom-up etree level per supernode (cousins share a level).
    fill_block_rows:
        For each supernode, the sorted ancestor supernodes that contain at
        least one exact fill row of its columns (the supernodal factor's
        block-column structure).
    first_desc:
        Lowest supernode of each supernode's subtree (itself for a
        leaf), from one ascending pass over ``parent``.
    postordered:
        Every subtree is one supernode range, so ``D(s)`` is exactly
        ``[first_desc[s], s)`` — true of every plan ``analyze`` builds.
    """

    snode_ptr: np.ndarray
    snode_of: np.ndarray
    parent: np.ndarray
    children: list[list[int]]
    levels: np.ndarray
    fill_block_rows: list[np.ndarray]
    nnz_factor: int = 0
    fill_in: int = 0
    first_desc: np.ndarray = field(init=False, repr=False)
    postordered: bool = field(init=False, repr=False)
    _runs: list[RowRuns] | None = field(init=False, default=None, repr=False)
    _leaf_groups: list[tuple[int, ...]] | None = field(
        init=False, default=None, repr=False
    )

    def __post_init__(self) -> None:
        # One ascending pass (parents outnumber their children): each
        # subtree's lowest supernode and its size.  The structure is
        # postordered iff every subtree fills its range [first, s].
        first = list(range(self.ns))
        size = [1] * self.ns
        for s, p in enumerate(self.parent.tolist()):
            if p >= 0:
                size[p] += size[s]
                first[p] = min(first[p], first[s])
        self.first_desc = np.asarray(first, dtype=np.int64)
        self.postordered = all(
            f == s - k + 1 for s, (f, k) in enumerate(zip(first, size))
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of matrix columns (graph vertices)."""
        return int(self.snode_ptr[-1])

    @property
    def ns(self) -> int:
        """Number of supernodes."""
        return self.snode_ptr.shape[0] - 1

    def col_range(self, s: int) -> tuple[int, int]:
        """Column range ``[lo, hi)`` of supernode ``s``."""
        return int(self.snode_ptr[s]), int(self.snode_ptr[s + 1])

    def snode_size(self, s: int) -> int:
        """Number of columns in supernode ``s``."""
        lo, hi = self.col_range(s)
        return hi - lo

    # ------------------------------------------------------------------
    def ancestor_snodes(self, s: int) -> np.ndarray:
        """The parent chain of ``s`` up to its root (ascending)."""
        out = []
        p = self.parent[s]
        while p >= 0:
            out.append(int(p))
            p = self.parent[p]
        return np.asarray(out, dtype=np.int64)

    def descendant_snodes(self, s: int) -> np.ndarray:
        """``D(s)``: every supernode strictly below ``s`` (sorted).

        ``[first_desc[s], s)`` on a postordered structure; otherwise the
        members of that range whose root path meets ``s``.
        """
        lo = int(self.first_desc[s])
        cand = np.arange(lo, s, dtype=np.int64)
        if self.postordered or not cand.size:
            return cand
        # Parents exceed children: a descending pass settles membership.
        below = np.zeros(s - lo + 1, dtype=bool)
        below[-1] = True
        parent = self.parent
        for t in range(s - 1, lo - 1, -1):
            p = int(parent[t])
            below[t - lo] = lo <= p <= s and below[p - lo]
        return cand[below[:-1]]

    def _vertices_of(self, snodes: np.ndarray) -> np.ndarray:
        if snodes.size == 0:
            return np.empty(0, dtype=np.int64)
        parts = [
            np.arange(self.snode_ptr[t], self.snode_ptr[t + 1])
            for t in snodes
        ]
        return np.concatenate(parts)

    def descendant_vertices(self, s: int) -> np.ndarray:
        """Columns of every supernode in ``D(s)`` (ascending).

        The range ``[snode_ptr[first_desc[s]], snode_ptr[s])`` on a
        postordered structure.
        """
        return self._vertices_of(self.descendant_snodes(s))

    def ancestor_vertices(self, s: int) -> np.ndarray:
        """Columns of ``A(s)``: the exact fill block rows of ``s``.

        These are the ancestors that actually receive finite values, a
        subset of the columns of :meth:`ancestor_snodes`.
        """
        return self._vertices_of(self.fill_block_rows[s])

    def row_runs(self, s: int) -> RowRuns:
        """``D(s) ++ A(s)`` of supernode ``s`` as contiguous column runs.

        Computed for every supernode on the first call and kept on the
        structure.  Runs coalesce any consecutive supernodes, so a
        postordered ``D(s)`` is one run and ``A(s)`` a few.
        """
        if self._runs is None:
            self._runs = self._build_runs()
        return self._runs[s]

    def leaf_groups(self) -> list[tuple[int, ...]]:
        """Sibling leaves that share their ``A(s)``, as ascending tuples.

        Each group holds two or more leaf supernodes (``nd == 0``) whose
        :meth:`row_runs` ``anc`` are identical; groups are ordered by
        their last member.  A leaf is nobody's ancestor, so eliminating a
        group's members writes none of each other's blocks, and their
        ``A×A`` updates are ⊕-accumulations into one shared block: the
        sequential sweep runs a group as one task with one outer GEMM.
        Computed on the first call and kept on the structure.
        """
        if self._leaf_groups is None:
            by_anc: dict[tuple, list[int]] = {}
            for s in range(self.ns):
                runs = self.row_runs(s)
                if not runs.nd:
                    by_anc.setdefault(runs.anc, []).append(s)
            self._leaf_groups = sorted(
                (tuple(g) for g in by_anc.values() if len(g) > 1),
                key=lambda g: g[-1],
            )
        return self._leaf_groups

    def _build_runs(self) -> list[RowRuns]:
        ptr = self.snode_ptr
        desc = _coalesce([self.descendant_snodes(s) for s in range(self.ns)], ptr)
        out = []
        for d, a in zip(desc, _coalesce(self.fill_block_rows, ptr)):
            d, nd = _offsets(d)
            a, na = _offsets(a)
            rows = d + tuple((off + nd, lo, hi) for off, lo, hi in a)
            out.append(RowRuns(d, a, rows, nd, na))
        return out

    # ------------------------------------------------------------------
    def level_order(self) -> list[np.ndarray]:
        """Supernodes grouped by etree level, bottom level first.

        All members of one group are pairwise cousins, hence eliminable in
        parallel (paper §3.5).
        """
        nlevels = int(self.levels.max()) + 1 if self.ns else 0
        return [
            np.flatnonzero(self.levels == lvl).astype(np.int64)
            for lvl in range(nlevels)
        ]

    def stats(self) -> dict:
        """Summary statistics for reporting."""
        sizes = np.diff(self.snode_ptr)
        return {
            "n": self.n,
            "num_supernodes": self.ns,
            "max_block": int(sizes.max()) if self.ns else 0,
            "mean_snode": float(sizes.mean()) if self.ns else 0.0,
            "tree_levels": int(self.levels.max()) + 1 if self.ns else 0,
            "nnz_factor": self.nnz_factor,
            "fill_in": self.fill_in,
        }


def _coalesce(
    snode_lists: list[np.ndarray], snode_ptr: np.ndarray
) -> list[list[tuple[int, int]]]:
    """Column runs ``(start, stop)`` of each ascending supernode list.

    Consecutive supernodes of one list share a run; one vectorized pass
    over every list at once.
    """
    ns = len(snode_lists)
    owner = np.repeat(np.arange(ns, dtype=np.int64),
                      [a.shape[0] for a in snode_lists])
    if not owner.size:
        return [[] for _ in range(ns)]
    snodes = np.concatenate(snode_lists)
    new = np.ones(snodes.shape[0], dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (snodes[1:] != snodes[:-1] + 1)
    first = np.flatnonzero(new)
    last = np.append(first[1:], snodes.shape[0]) - 1
    pairs = list(zip(snode_ptr[snodes[first]].tolist(),
                     snode_ptr[snodes[last] + 1].tolist()))
    bounds = np.cumsum(np.bincount(owner[first], minlength=ns)).tolist()
    return [pairs[i:j] for i, j in zip([0] + bounds[:-1], bounds)]


def _offsets(pairs: list[tuple[int, int]]) -> tuple[tuple[Run, ...], int]:
    """``(start, stop)`` pairs as runs with block offsets, and their rows."""
    runs, at = [], 0
    for lo, hi in pairs:
        runs.append((at, lo, hi))
        at += hi - lo
    return tuple(runs), at


def panel_rows(structure: SupernodalStructure) -> np.ndarray:
    """Per-supernode panel height ``|D(s)| + |A(s)|`` of the exact sweep.

    ``D(s)`` counts every vertex below ``s`` in the supernodal etree — one
    ascending pass of subtree sums, since parents outnumber their
    children — and ``A(s)`` the vertices of the exact fill block rows
    (:meth:`SupernodalStructure.ancestor_vertices`).  No row arrays are
    built.
    """
    widths = np.diff(structure.snode_ptr)
    subtree = widths.tolist()
    for s, p in enumerate(structure.parent.tolist()):
        if p >= 0:
            subtree[p] += subtree[s]
    blocks = structure.fill_block_rows
    owner = np.repeat(np.arange(structure.ns), [blk.shape[0] for blk in blocks])
    flat = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    anc = np.bincount(owner, weights=widths[flat], minlength=structure.ns)
    return np.asarray(subtree, dtype=np.int64) - widths + anc.astype(np.int64)


def superfw_snode_ops(structure: SupernodalStructure) -> np.ndarray:
    """Scalar semiring ops of eliminating each supernode (paper §4.1).

    A supernode of width ``b`` with ``r`` panel rows (:func:`panel_rows`)
    costs ``2b³`` for DiagUpdate, ``2·2b²r`` for the two PanelUpdates and
    ``2br²`` for the OuterUpdate.  The total equals the ``OpCounter`` of
    an exact-panel SuperFW sweep on this structure, on every executor.
    This is the one cost law behind the update router, ``ordering="auto"``
    and the scaling simulator.
    """
    return sweep_ops(
        np.diff(structure.snode_ptr).astype(np.int64), panel_rows(structure)
    )


def _split_keys(keys: np.ndarray, width: int, groups: int) -> list[np.ndarray]:
    """Split ascending ``group * width + value`` keys into per-group values."""
    if not groups:
        return []
    bounds = np.searchsorted(keys // width, np.arange(1, groups))
    return np.split(keys % width, bounds)


def supernodal_analysis(
    sym: SymbolicFactor, snode_ptr: np.ndarray | None = None
) -> tuple[SupernodalStructure, list[np.ndarray]]:
    """Supernodal structure plus each supernode's vertex-level fill rows.

    ``snode_ptr`` partitions the columns into contiguous blocks — the
    fundamental supernodes (:func:`~repro.symbolic.supernodes.find_supernodes`)
    when omitted, or an amalgamation of them
    (:func:`~repro.symbolic.supernodes.amalgamate`).
    ``snode_rows[s]`` is the sorted union of the column structures of
    ``s`` restricted to rows above the supernode (the multifrontal
    frontal index set); the structure's ``fill_block_rows`` are the
    supernodes those rows fall in.  Both come from one vectorized union
    over every factor entry.
    """
    if snode_ptr is None:
        snode_ptr = find_supernodes(sym)
    ns = snode_ptr.shape[0] - 1
    n = sym.n
    snode_of = np.repeat(np.arange(ns, dtype=np.int64), np.diff(snode_ptr))
    parent = supernode_parents(sym.parent, snode_ptr)
    children: list[list[int]] = [[] for _ in range(ns)]
    for s in range(ns):
        if parent[s] >= 0:
            children[parent[s]].append(s)
    levels = etree_levels(parent)
    # Every factor entry (row, column), keyed by the column's supernode
    # and kept when the row lies above that supernode.
    flat = (np.concatenate(sym.col_struct) if n
            else np.empty(0, dtype=np.int64))
    owner = np.repeat(snode_of, sym.col_counts)
    above = flat >= snode_ptr[owner + 1]
    row_keys = np.unique(owner[above] * n + flat[above])
    snode_rows = _split_keys(row_keys, n, ns)
    block_keys = np.unique(row_keys // n * ns + snode_of[row_keys % n])
    structure = SupernodalStructure(
        snode_ptr=snode_ptr,
        snode_of=snode_of,
        parent=parent,
        children=children,
        levels=levels,
        fill_block_rows=_split_keys(block_keys, ns, ns),
        nnz_factor=sym.nnz_factor,
        fill_in=sym.fill_in,
    )
    return structure, snode_rows


def build_structure(sym: SymbolicFactor) -> SupernodalStructure:
    """The fundamental-supernode structure of a symbolic factorization.

    No amalgamation: :func:`repro.plan.analyze` is where blocks merge, by
    the sweep's cost law.
    """
    return supernodal_analysis(sym)[0]

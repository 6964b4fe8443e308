"""Compressed-sparse-row weighted graph.

The paper's implementations store graphs in CSR ("compressed-sparse-row
storage used by Dijkstra", §5.2.2); we follow suit.  A :class:`Graph` is an
*undirected* weighted graph: every edge is stored in both directions so each
row's neighbor list is complete.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.util.perm import check_permutation, invert_permutation


class Graph:
    """Undirected weighted graph in CSR form.

    Parameters
    ----------
    indptr, indices, weights:
        Standard CSR arrays.  ``indices[indptr[v]:indptr[v+1]]`` are the
        neighbors of ``v`` with matching ``weights``.  The structure must be
        symmetric (an exception is raised otherwise); self-loops are
        rejected because distance-matrix diagonals are identically the
        semiring one (0).

    The constructor also records each arc's mirror slot (the index of
    arc ``v → u`` for arc ``u → v``), so :meth:`with_weights` checks new
    weights in ``O(nnz)`` without re-sorting the structure.
    """

    __slots__ = ("indptr", "indices", "weights", "n", "_mirror")

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.n = self.indptr.shape[0] - 1
        if self.indices.shape != self.weights.shape:
            raise ValueError("indices and weights must have equal length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("malformed indptr")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.n
        ):
            raise ValueError("neighbor index out of range")
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        if np.any(rows == self.indices):
            raise ValueError("self-loops are not allowed")
        self._mirror = self._mirror_slots(rows)
        self._check_symmetric_weights()

    def _mirror_slots(self, rows: np.ndarray) -> np.ndarray:
        """Each arc's mirror slot; raises unless the structure is symmetric.

        Sorting the arcs by ``(row, col)`` and by ``(col, row)`` lines
        every arc up with its reverse.
        """
        order_fwd = np.lexsort((self.indices, rows))
        order_rev = np.lexsort((rows, self.indices))
        if not (
            np.array_equal(rows[order_fwd], self.indices[order_rev])
            and np.array_equal(self.indices[order_fwd], rows[order_rev])
        ):
            raise ValueError("graph structure/weights are not symmetric")
        mirror = np.empty_like(order_fwd)
        mirror[order_fwd] = order_rev
        return mirror

    def _check_symmetric_weights(self) -> None:
        if not np.allclose(
            self.weights, self.weights[self._mirror], equal_nan=True
        ):
            raise ValueError("graph structure/weights are not symmetric")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, float]] | np.ndarray,
        *,
        dedupe: str = "min",
    ) -> "Graph":
        """Build from an iterable of ``(u, v, w)`` undirected edges.

        Parameters
        ----------
        n:
            Number of vertices.
        edges:
            Edge list; each edge is stored in both directions.  Self-loops
            are dropped.
        dedupe:
            How to combine parallel edges: ``"min"`` (shortest-path
            friendly), ``"sum"``, or ``"error"``.
        """
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if arr.size == 0:
            arr = np.empty((0, 3), dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ValueError("edges must be (u, v, w) triples")
        u = arr[:, 0].astype(np.int64)
        v = arr[:, 1].astype(np.int64)
        w = arr[:, 2].astype(np.float64)
        keep = u != v
        u, v, w = u[keep], v[keep], w[keep]
        if u.size and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
            raise ValueError("edge endpoint out of range")
        # Mirror, canonicalize and dedupe.
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        wgt = np.concatenate([w, w])
        key = src * np.int64(n) + dst
        order = np.argsort(key, kind="stable")
        key, src, dst, wgt = key[order], src[order], dst[order], wgt[order]
        if key.size:
            uniq_mask = np.empty(key.shape, dtype=bool)
            uniq_mask[0] = True
            np.not_equal(key[1:], key[:-1], out=uniq_mask[1:])
            if not uniq_mask.all():
                if dedupe == "error":
                    raise ValueError("duplicate edges present")
                group = np.cumsum(uniq_mask) - 1
                ngroups = group[-1] + 1
                if dedupe == "min":
                    combined = np.full(ngroups, np.inf)
                    np.minimum.at(combined, group, wgt)
                elif dedupe == "sum":
                    combined = np.zeros(ngroups)
                    np.add.at(combined, group, wgt)
                else:
                    raise ValueError(f"unknown dedupe mode {dedupe!r}")
                src, dst, wgt = src[uniq_mask], dst[uniq_mask], combined
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst, wgt)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "Graph":
        """Build from a symmetric dense weight matrix.

        Entries that are ``inf`` (or the diagonal) are treated as absent.
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("expected a square matrix")
        n = dense.shape[0]
        iu, ju = np.nonzero(np.triu(~np.isinf(dense), k=1))
        edges = np.column_stack([iu, ju, dense[iu, ju]])
        return cls.from_edges(n, edges)

    @classmethod
    def from_scipy(cls, mat) -> "Graph":
        """Build from any scipy sparse matrix (symmetrized by min)."""
        coo = mat.tocoo()
        keep = coo.row != coo.col
        edges = np.column_stack(
            [coo.row[keep], coo.col[keep], coo.data[keep]]
        )
        return cls.from_edges(coo.shape[0], edges)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self.indices.shape[0] // 2

    @property
    def nnz(self) -> int:
        """Stored directed arcs (``2 m``)."""
        return self.indices.shape[0]

    @property
    def density(self) -> float:
        """Average stored arcs per row, the paper's ``nnz/n`` column."""
        return self.nnz / self.n if self.n else 0.0

    def degree(self, v: int | None = None) -> np.ndarray | int:
        """Degree of one vertex, or the full degree array."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor indices of ``v`` (a CSR slice view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True when ``{u, v}`` is an edge."""
        return bool(np.isin(v, self.neighbors(u)).item())

    def edge_array(self) -> np.ndarray:
        """Return ``(m, 3)`` array of canonical ``u < v`` edges."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        mask = rows < self.indices
        return np.column_stack(
            [rows[mask], self.indices[mask], self.weights[mask]]
        )

    def min_weight(self) -> float:
        """Smallest edge weight (``inf`` for an empty graph)."""
        return float(self.weights.min()) if self.weights.size else np.inf

    # ------------------------------------------------------------------
    # Conversions / transforms
    # ------------------------------------------------------------------
    def to_dense_dist(self, dtype=np.float64) -> np.ndarray:
        """Initial distance matrix: ``w`` on edges, 0 diagonal, inf else.

        This is the ``Dist`` initialization of Algorithm 1.
        """
        dist = np.full((self.n, self.n), np.inf, dtype=dtype)
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        dist[rows, self.indices] = self.weights
        np.fill_diagonal(dist, 0.0)
        return dist

    def to_scipy(self):
        """Return the weight matrix as ``scipy.sparse.csr_matrix``."""
        from scipy import sparse

        return sparse.csr_matrix(
            (self.weights, self.indices, self.indptr), shape=(self.n, self.n)
        )

    def permute(self, perm: np.ndarray) -> "Graph":
        """Relabel vertices: new vertex ``i`` is old vertex ``perm[i]``."""
        check_permutation(perm, self.n)
        iperm = invert_permutation(np.asarray(perm, dtype=np.int64))
        edges = self.edge_array()
        if edges.size:
            edges = np.column_stack(
                [
                    iperm[edges[:, 0].astype(np.int64)],
                    iperm[edges[:, 1].astype(np.int64)],
                    edges[:, 2],
                ]
            )
        return Graph.from_edges(self.n, edges)

    def subgraph(self, vertices: np.ndarray) -> "Graph":
        """Induced subgraph on ``vertices`` (relabelled ``0..len-1``).

        One vectorised CSR slice with rows sorted by new neighbour id: it
        equals ``Graph.from_edges`` on the induced edge list whenever the
        arc weights are symmetric.  An induced subgraph of a symmetric
        graph is symmetric, so the constructor's check is skipped.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = vertices.shape[0]
        local = np.full(self.n, -1, dtype=np.int64)
        local[vertices] = np.arange(k)
        row = np.repeat(local, np.diff(self.indptr))
        nbr = local[self.indices]
        arcs = np.flatnonzero((row >= 0) & (nbr >= 0))
        arcs = arcs[np.argsort(row[arcs] * k + nbr[arcs], kind="stable")]
        sub = Graph.__new__(Graph)
        sub.indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(row[arcs], minlength=k), out=sub.indptr[1:])
        sub.indices = nbr[arcs]
        sub.weights = self.weights[arcs]
        sub.n = k
        sub._mirror = None
        return sub

    def with_weights(self, weights: np.ndarray) -> "Graph":
        """Return a structurally identical graph with new arc weights.

        The new graph shares this one's ``indptr``, ``indices`` and
        mirror slots; only the weights are checked, each arc's against
        its mirror's (``O(nnz)``, the constructor's ``allclose`` rule).
        """
        graph = Graph.__new__(Graph)
        graph.indptr, graph.indices, graph.n = self.indptr, self.indices, self.n
        graph.weights = np.asarray(weights, dtype=np.float64)
        if graph.weights.shape != graph.indices.shape:
            raise ValueError("indices and weights must have equal length")
        if self._mirror is None:
            self._mirror = self._mirror_slots(
                np.repeat(np.arange(self.n), np.diff(self.indptr))
            )
        graph._mirror = self._mirror
        graph._check_symmetric_weights()
        return graph

    def adjacency_lists(self) -> list[list[tuple[int, float]]]:
        """Pointer-chasing adjacency-list representation.

        Used by the Boost-style Dijkstra baseline: the paper attributes the
        BGL slowdown to this storage layout versus CSR (§5.2.2).
        """
        out: list[list[tuple[int, float]]] = []
        for v in range(self.n):
            lo, hi = self.indptr[v], self.indptr[v + 1]
            out.append(
                [
                    (int(self.indices[t]), float(self.weights[t]))
                    for t in range(lo, hi)
                ]
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.n}, m={self.num_edges})"

"""Seeded input generators for the benchmark workloads.

Everything here depends only on NumPy and SciPy, never on the library's
own generators, so a change to the library cannot change a workload.
Each generator returns ``(n, edges)`` where ``edges`` is an ``(m, 3)``
float64 array of undirected ``(u, v, w)`` rows.

Weights are dyadic rationals ``k / 8`` with ``1 <= k <= 64``.  Every sum
along a path of such weights is exact in float64, so every exact APSP
solver agrees with every other one bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay

#: Denominator of every edge weight.
WEIGHT_QUANTUM = 8.0
#: Largest weight numerator.
WEIGHT_MAX_UNITS = 64


def dyadic_weights(rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` weights drawn uniformly from ``{1/8, 2/8, ..., 64/8}``."""
    return rng.integers(1, WEIGHT_MAX_UNITS + 1, size=size) / WEIGHT_QUANTUM


def digest(edges: np.ndarray) -> str:
    """Short content digest of an edge array."""
    return hashlib.sha256(np.ascontiguousarray(edges).tobytes()).hexdigest()[:16]


def _with_weights(rng: np.random.Generator, pairs: np.ndarray) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64)
    out = np.empty((pairs.shape[0], 3), dtype=np.float64)
    out[:, :2] = pairs
    out[:, 2] = dyadic_weights(rng, pairs.shape[0])
    return out


def _delaunay_pairs(points: np.ndarray) -> np.ndarray:
    """Sorted unique ``(u < v)`` edges of the Delaunay triangulation."""
    simplices = Delaunay(points).simplices
    pairs = np.concatenate(
        [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]]
    )
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0)


def _geometric_sparse_pairs(
    points: np.ndarray, extra_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Euclidean MST plus the shortest remaining Delaunay edges.

    ``extra_fraction * n`` non-tree edges are kept, picked among the
    shorter half of the Delaunay edges, which gives the long, thin,
    loop-poor structure of infrastructure networks.
    """
    n = points.shape[0]
    tri = _delaunay_pairs(points)
    length = np.linalg.norm(points[tri[:, 0]] - points[tri[:, 1]], axis=1)
    mst = minimum_spanning_tree(
        coo_matrix((length, (tri[:, 0], tri[:, 1])), shape=(n, n))
    ).tocoo()
    tree = np.sort(np.stack([mst.row, mst.col], axis=1), axis=1)
    in_tree = set(map(tuple, tree.tolist()))
    order = np.argsort(length, kind="stable")
    rest = [tuple(tri[i]) for i in order if tuple(tri[i]) not in in_tree]
    pool = rest[: max(1, len(rest) // 2)]
    k = min(len(pool), int(round(extra_fraction * n)))
    pick = rng.choice(len(pool), size=k, replace=False)
    extra = np.array([pool[i] for i in sorted(pick)], dtype=np.int64).reshape(-1, 2)
    return np.concatenate([tree.astype(np.int64), extra])


def delaunay_mesh(rng: np.random.Generator, n: int) -> tuple[int, np.ndarray]:
    """Planar Delaunay mesh over ``n`` uniform points (DIMACS10 class)."""
    points = rng.random((n, 2))
    return n, _with_weights(rng, _delaunay_pairs(points))


def barabasi_albert(
    rng: np.random.Generator, n: int, m: int
) -> tuple[int, np.ndarray]:
    """Preferential-attachment graph (email-Enron class).

    Starts from a star on ``m + 1`` vertices; every later vertex attaches
    to ``m`` distinct earlier vertices picked with probability
    proportional to degree.
    """
    pairs = [(0, v) for v in range(1, m + 1)]
    ends = [u for p in pairs for u in p]
    for v in range(m + 1, n):
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(ends[int(rng.integers(len(ends)))])
        for u in sorted(chosen):
            pairs.append((u, v))
            ends.extend((u, v))
    return n, _with_weights(rng, np.array(pairs))


def road_network(
    rng: np.random.Generator, n: int, junction_share: float = 0.25
) -> tuple[int, np.ndarray]:
    """Road-like graph (luxembourg_osm class): chains between junctions.

    Junctions are uniform points joined by a sparse geometric backbone
    (MST plus 15% extra short edges); each backbone edge is then
    subdivided into a chain whose vertex count is proportional to its
    length, so most vertices have degree 2, as on real road maps.
    """
    k = max(4, int(round(junction_share * n)))
    points = rng.random((k, 2))
    backbone = _geometric_sparse_pairs(points, 0.15, rng)
    length = np.linalg.norm(points[backbone[:, 0]] - points[backbone[:, 1]], axis=1)
    # Largest-remainder split of the n - k interior vertices over edges.
    share = length / length.sum() * (n - k)
    inner = np.floor(share).astype(np.int64)
    short = (n - k) - int(inner.sum())
    inner[np.argsort(-(share - inner), kind="stable")[:short]] += 1
    pairs = []
    nxt = k
    for (u, v), c in zip(backbone.tolist(), inner.tolist()):
        chain = [u, *range(nxt, nxt + c), v]
        nxt += c
        pairs.extend(zip(chain[:-1], chain[1:]))
    return n, _with_weights(rng, np.array(pairs))


def power_grid(rng: np.random.Generator, n: int) -> tuple[int, np.ndarray]:
    """Sparse geometric grid (USpowerGrid class, mean degree ~2.7)."""
    points = rng.random((n, 2))
    return n, _with_weights(rng, _geometric_sparse_pairs(points, 0.33, rng))


def linked_regions(
    make, rng: np.random.Generator, parts: int, links: int = 2
) -> tuple[int, np.ndarray]:
    """``parts`` independent regions from ``make(rng)``, chained by ``links`` edges.

    Regions ``k`` and ``k + 1`` are joined by ``links`` edges between
    distinct random vertices, like regional grids joined by tie-lines or
    cities joined by highways.  One graph then holds several independent
    structures, so its cost varies less from seed to seed.
    """
    blocks, sizes = [], []
    for _ in range(parts):
        n, edges = make(rng)
        edges = edges.copy()
        edges[:, :2] += sum(sizes)
        blocks.append(edges)
        sizes.append(n)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    for k in range(parts - 1):
        a = starts[k] + rng.choice(sizes[k], links, replace=False)
        b = starts[k + 1] + rng.choice(sizes[k + 1], links, replace=False)
        blocks.append(_with_weights(rng, np.stack([a, b], axis=1)))
    return int(starts[-1]), np.concatenate(blocks)

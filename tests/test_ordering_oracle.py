"""The partitioner's list-based loops against their reference versions.

``tests/_ordering_oracle.py`` keeps the original NumPy-scalar loops of
``fm_refine``, ``_bfs_grow`` and ``heavy_edge_matching``.  The library
versions must return byte-identical arrays on every input, and whole
plans built with either set must match.
"""

import numpy as np
import pytest

import _ordering_oracle as oracle
from repro.graphs import generators as gen
from repro.graphs.graph import Graph
from repro.obs import Tracer, use_tracer
from repro.ordering import partition
from repro.ordering.coarsen import (
    LevelGraph,
    contract,
    heavy_edge_matching,
    level_graph_from_csr,
)
from repro.ordering.partition import _bfs_grow
from repro.ordering.refine import fm_refine
from repro.plan import analyze


def _star(n: int) -> Graph:
    return Graph.from_edges(n, [(0, v, 1.0) for v in range(1, n)])


def _disconnected() -> Graph:
    # A 4x4 grid, a triangle, a 5-path and two isolated vertices.
    grid = gen.grid2d(4, 4, seed=0)
    edges = [(int(u), int(v), 1.0) for u, v, _ in grid.edge_array()]
    edges += [(16, 17, 1.0), (17, 18, 1.0), (16, 18, 1.0)]
    edges += [(v, v + 1, 1.0) for v in range(19, 23)]
    return Graph.from_edges(25, edges)


GRAPHS = {
    "grid": lambda: gen.grid2d(9, 7, seed=0),
    "mesh": lambda: gen.delaunay_mesh(150, seed=1),
    "scale_free": lambda: gen.barabasi_albert(120, 3, seed=2),
    "power_grid": lambda: gen.power_grid_like(140, seed=3),
    "star": lambda: _star(40),
    "disconnected": _disconnected,
}


def _finest(graph: Graph) -> LevelGraph:
    return level_graph_from_csr(graph.indptr, graph.indices)


def _levels(graph: Graph, seed: int, depth: int = 3) -> list[LevelGraph]:
    """The unit-weight finest level plus weighted levels from ``contract``."""
    rng = np.random.default_rng(seed)
    levels = [_finest(graph)]
    for _ in range(depth):
        coarse, _ = contract(levels[-1], heavy_edge_matching(levels[-1], rng))
        if coarse.n == levels[-1].n or coarse.n < 4:
            break
        levels.append(coarse)
    return levels


def _sides(level: LevelGraph, rng: np.random.Generator) -> list[np.ndarray]:
    """Random, skewed, one-sided and BFS-grown starting bisections."""
    n = level.n
    return [
        (rng.uniform(size=n) < 0.5).astype(np.int8),
        (rng.uniform(size=n) < 0.8).astype(np.int8),
        np.zeros(n, dtype=np.int8),
        oracle._bfs_grow(level, int(rng.integers(n))),
    ]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("balance_tol", [0.0, 0.02, 0.1])
def test_fm_refine_matches_oracle(name, balance_tol):
    rng = np.random.default_rng(7)
    for level in _levels(GRAPHS[name](), seed=1):
        for side in _sides(level, rng):
            for max_passes in (1, 2, 3, 4):
                kw = dict(balance_tol=balance_tol, max_passes=max_passes)
                expected = oracle.fm_refine(level, side, **kw)
                got = fm_refine(level, side, **kw)
                assert _same(got, expected), (name, level.n, kw)


def _weighted(graph: Graph, rng: np.random.Generator, ew_max: int, vw_max: int):
    """``graph`` as a level with random symmetric edge and vertex weights."""
    base = _finest(graph)
    n = base.n
    rows = np.repeat(np.arange(n), np.diff(base.indptr))
    lo, hi = np.minimum(rows, base.indices), np.maximum(rows, base.indices)
    draw = rng.integers(1, ew_max + 1, size=n * n)
    return LevelGraph(
        indptr=base.indptr,
        indices=base.indices,
        eweights=draw[lo * n + hi].astype(np.int64),
        vweights=rng.integers(1, vw_max + 1, size=n).astype(np.int64),
    )


def test_fm_refine_matches_oracle_on_random_weights():
    # Heavier, irregular weights than contraction of small graphs yields.
    rng = np.random.default_rng(11)
    for seed in range(6):
        level = _weighted(gen.delaunay_mesh(90, seed=seed), rng, 8, 4)
        for side in _sides(level, rng):
            for balance_tol in (0.0, 0.02, 0.1):
                expected = oracle.fm_refine(level, side, balance_tol=balance_tol)
                got = fm_refine(level, side, balance_tol=balance_tol)
                assert _same(got, expected)


def test_fm_refine_matches_oracle_on_small_random_graphs():
    # Many tiny weighted graphs: the cases where a pass's best cut equals
    # the settled bound, so an off-by-one in the early stop shows here.
    for seed in range(1500):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 24))
        p = rng.uniform(0.1, 0.5)
        edges = [
            (u, v, 1.0)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.uniform() < p
        ]
        level = _weighted(Graph.from_edges(n, edges), rng, 3, 2)
        side = (rng.uniform(size=n) < 0.5).astype(np.int8)
        for balance_tol in (0.0, 0.02, 0.1):
            expected = oracle.fm_refine(level, side, balance_tol=balance_tol)
            got = fm_refine(level, side, balance_tol=balance_tol)
            assert _same(got, expected), (seed, balance_tol)


def test_fm_refine_early_stop_fires_and_is_traced():
    level = _finest(gen.grid2d(12, 12, seed=0))
    side = (np.random.default_rng(3).uniform(size=level.n) < 0.5).astype(np.int8)
    tracer = Tracer()
    with use_tracer(tracer):
        got = fm_refine(level, side)
    assert _same(got, oracle.fm_refine(level, side))
    (span,) = [e for e in tracer.events() if e.name == "ordering.refine"]
    assert span.args["n"] == level.n
    assert 1 <= span.args["passes"] <= 4
    assert span.args["moves"] > 0
    assert span.args["early_stop"] is True


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_bfs_grow_matches_oracle(name):
    for level in _levels(GRAPHS[name](), seed=2):
        for start in range(level.n):
            assert _same(_bfs_grow(level, start), oracle._bfs_grow(level, start))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_heavy_edge_matching_matches_oracle_and_rng_stream(name):
    for level in _levels(GRAPHS[name](), seed=3):
        for seed in range(4):
            rng_new = np.random.default_rng(seed)
            rng_old = np.random.default_rng(seed)
            got = heavy_edge_matching(level, rng_new)
            expected = oracle.heavy_edge_matching(level, rng_old)
            assert _same(got, expected)
            # The caller keeps drawing from the same generator afterwards.
            assert rng_new.bit_generator.state == rng_old.bit_generator.state


PLAN_GRAPHS = [
    ("mesh", lambda s: gen.delaunay_mesh(300, seed=s)),
    ("scale_free", lambda s: gen.barabasi_albert(200, 3, seed=s)),
    ("road", lambda s: gen.road_network_like(400, seed=s)),
    ("power_grid", lambda s: gen.power_grid_like(300, seed=s)),
]


@pytest.mark.parametrize("name,build", PLAN_GRAPHS, ids=[p[0] for p in PLAN_GRAPHS])
def test_plan_identical_with_oracle_loops(name, build, monkeypatch):
    graphs = [build(seed) for seed in range(3)]
    fast = [analyze(g) for g in graphs]
    monkeypatch.setattr(partition, "fm_refine", oracle.fm_refine)
    monkeypatch.setattr(partition, "_bfs_grow", oracle._bfs_grow)
    monkeypatch.setattr(partition, "heavy_edge_matching", oracle.heavy_edge_matching)
    for g, plan in zip(graphs, fast):
        ref = analyze(g)
        assert np.array_equal(plan.ordering.perm, ref.ordering.perm), name
        assert len(plan.snode_rows) == len(ref.snode_rows)
        for got, expected in zip(plan.snode_rows, ref.snode_rows):
            assert np.array_equal(got, expected)

"""The pruned rank-k fold equals the full min-plus sandwich, bit for bit.

``repro.core.incremental.fold_batch`` evaluates candidates only on the
blocks of rows whose distance to an improving arc's head dropped and
columns whose distance from its tail dropped.  The full ``(n × p) ⊗
(p × p) ⊗ (p × n)`` sandwich it replaced lives on here as the oracle:
on dyadic weights (every path sum exact) both must give the same
matrix, to the bit, and the same improved count.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.incremental import (
    apply_batch_improvements,
    fold_batch,
    quantize_weights,
)
from repro.core.superfw import superfw
from repro.graphs import generators as gen
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.obs import Tracer, use_tracer
from repro.plan.session import APSPSession
from repro.semiring.engine import get_engine

Q = 2.0**-3  # weights are multiples of Q: every path sum is exact


def sandwich_fold(dist, updates, *, directed=False, atol=1e-12) -> int:
    """The full terminal-closure sandwich, ``dist ⊕ (dist[:, P] ⊗ T) ⊗ dist[P, :]``."""
    arcs = np.asarray(list(updates), dtype=np.float64)
    heads = arcs[:, 0].astype(np.int64)
    tails = arcs[:, 1].astype(np.int64)
    weights = arcs[:, 2]
    if not directed:
        heads, tails = np.r_[heads, tails], np.r_[tails, heads]
        weights = np.r_[weights, weights]
    terminals = np.unique(np.r_[heads, tails])
    index = {int(t): i for i, t in enumerate(terminals)}
    closure = dist[np.ix_(terminals, terminals)].copy()
    for a, b, w in zip(heads, tails, weights):
        ia, ib = index[int(a)], index[int(b)]
        closure[ia, ib] = min(closure[ia, ib], w)
    for t in range(terminals.shape[0]):
        np.minimum(closure, closure[:, t:t + 1] + closure[t, :], out=closure)
    engine = get_engine()
    candidate = engine.gemm(engine.gemm(dist[:, terminals], closure),
                            dist[terminals, :])
    improved = int(np.count_nonzero(candidate < dist - atol))
    np.minimum(dist, candidate, out=dist)
    return improved


def _dyadic(graph: Graph) -> Graph:
    return quantize_weights(graph, Q)


def _potential_digraph(graph: Graph, seed: int = 7):
    """Asymmetric arcs, many negative, no negative cycle, dyadic.

    Arcs weigh ``base + p(u) - p(v)`` with ``base ≥ 0`` (Johnson's
    reweighting keeps every cycle's length), so lowering a base, or
    adding an arc with a nonnegative base, never makes a negative cycle.
    Returns the digraph and ``p``.
    """
    edges = graph.edge_array()
    u = np.r_[edges[:, 0], edges[:, 1]].astype(np.int64)
    v = np.r_[edges[:, 1], edges[:, 0]].astype(np.int64)
    rng = np.random.default_rng(seed)
    base = np.round(np.r_[edges[:, 2], edges[:, 2] * 1.5] / Q) * Q
    p = rng.integers(0, 16, graph.n) * Q
    w = base + p[u] - p[v]
    assert (w < 0).any()
    return DiGraph.from_edges(graph.n, np.column_stack([u, v, w])), p


def _check(dist, updates, directed=False):
    pruned, full = dist.copy(), dist.copy()
    fold = fold_batch(pruned, updates, directed=directed)
    improved = sandwich_fold(full, updates, directed=directed)
    assert pruned.tobytes() == full.tobytes()
    assert fold.improved == improved
    assert fold.rows <= dist.shape[0]
    assert fold.pairs <= dist.shape[0] ** 2
    return fold


def _decreases(graph, rng, k, factors=(0.5, 0.25, 0.125)):
    edges = graph.edge_array()
    picks = rng.choice(edges.shape[0], k, replace=False)
    return [
        (int(edges[i, 0]), int(edges[i, 1]),
         max(Q, np.round(edges[i, 2] * rng.choice(factors) / Q) * Q))
        for i in picks
    ]


@pytest.mark.parametrize("name,make", [
    ("grid", lambda: gen.grid2d(9, 9, seed=0)),
    ("power-grid", lambda: gen.power_grid_like(150, seed=4)),
    ("preferential-attachment", lambda: gen.barabasi_albert(120, 3, seed=2)),
    ("delaunay", lambda: gen.delaunay_mesh(140, seed=1)),
])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_undirected_fold_matches_sandwich(name, make, k):
    graph = _dyadic(make())
    dist = superfw(graph, seed=0).dist
    rng = np.random.default_rng(k)
    for _ in range(4):
        _check(dist, _decreases(graph, rng, k))


@pytest.mark.parametrize("k", [1, 3, 6])
def test_directed_negative_arc_fold_matches_sandwich(k):
    graph, p = _potential_digraph(gen.barabasi_albert(110, 2, seed=5))
    dist = superfw(graph, seed=0).dist
    arcs = graph.arc_array()
    rng = np.random.default_rng(k)
    for _ in range(4):
        picks = rng.choice(arcs.shape[0], k, replace=False)
        updates = []
        for i in picks:
            u, v, w = int(arcs[i, 0]), int(arcs[i, 1]), float(arcs[i, 2])
            base = w - p[u] + p[v]
            updates.append((u, v, base * rng.choice([0.0, 0.25, 0.5]) + p[u] - p[v]))
        fold = _check(dist, updates, directed=True)
        assert fold.improved > 0 or all(
            w >= dist[u, v] for u, v, w in updates
        )


def test_inserts_fold_matches_sandwich():
    graph = _dyadic(gen.grid2d(10, 10, seed=3))
    dist = superfw(graph, seed=0).dist
    rng = np.random.default_rng(0)
    for _ in range(6):
        a, b = rng.choice(graph.n, 2, replace=False)
        if graph.has_edge(int(a), int(b)):
            continue
        _check(dist, [(int(a), int(b), Q)])
    digraph, p = _potential_digraph(gen.grid2d(8, 8, seed=1))
    ddist = superfw(digraph, seed=0).dist
    inserts = [(0, 63, Q + p[0] - p[63]), (40, 3, p[40] - p[3])]
    assert _check(ddist, inserts, directed=True).improved > 0


def test_disconnected_fold_matches_sandwich():
    # Two grids side by side: every cross pair starts at inf.
    a = _dyadic(gen.grid2d(6, 6, seed=0)).edge_array()
    b = _dyadic(gen.grid2d(5, 5, seed=1)).edge_array()
    b[:, :2] += 36
    graph = Graph.from_edges(61, np.vstack([a, b]))
    dist = superfw(graph, seed=0).dist
    assert np.isinf(dist).any()
    # A non-improving arc inside a component changes nothing, inf rows
    # included.
    edges = graph.edge_array()
    u, v, w = int(edges[0, 0]), int(edges[0, 1]), float(edges[0, 2])
    assert _check(dist, [(u, v, w)]).improved == 0
    # A bridge between the components makes every cross pair finite.
    bridged = dist.copy()
    fold = fold_batch(bridged, [(5, 40, 1.0)])
    assert fold.improved == 2 * 36 * 25 and np.isfinite(bridged).all()
    _check(dist, [(5, 40, 1.0), (20, 50, 0.5), (u, v, w / 2)])
    digraph, p = _potential_digraph(graph)
    _check(superfw(digraph, seed=0).dist, [(3, 44, Q + p[3] - p[44])],
           directed=True)


def test_batches_sharing_terminals_match_sandwich():
    graph = _dyadic(gen.power_grid_like(160, seed=2))
    dist = superfw(graph, seed=0).dist
    edges = graph.edge_array()
    hub = int(np.bincount(edges[:, :2].astype(np.int64).ravel()).argmax())
    at_hub = [e for e in edges if hub in (int(e[0]), int(e[1]))]
    assert len(at_hub) >= 3
    star = [(int(e[0]), int(e[1]), float(e[2]) / 4) for e in at_hub]
    _check(dist, star)
    # A path of batch arcs: each arc's tail is another's head.
    path = [(i, i + 1, Q) for i in range(0, 12, 3)] + [(3, 90, Q)]
    _check(dist, path)
    digraph, p = _potential_digraph(gen.power_grid_like(100, seed=6))
    cycle = [(0, 7, Q + p[0] - p[7]), (7, 19, Q + p[7] - p[19]),
             (19, 0, Q + p[19] - p[0])]
    _check(superfw(digraph, seed=0).dist, cycle, directed=True)


def test_noop_and_non_improving_arcs_fold_nothing():
    graph = _dyadic(gen.grid2d(8, 8, seed=2))
    dist = superfw(graph, seed=0).dist
    edges = graph.edge_array()
    same = [(int(e[0]), int(e[1]), float(e[2])) for e in edges[:4]]
    # An arc no shorter than the distance it would replace is useless.
    u, v = 0, 63
    slack = [(u, v, float(dist[u, v])), (1, 62, float(dist[1, 62]) + 1.0)]
    for updates in (same, slack, same + slack):
        before = dist.copy()
        fold = _check(dist, updates)
        assert fold.improved == 0
        assert fold.rows == 0 and fold.pairs == 0
        assert np.array_equal(dist, before)
    # Mixed with one improving arc, only its blocks are touched.
    mixed = same + slack + [(int(edges[9, 0]), int(edges[9, 1]),
                             float(edges[9, 2]) / 8)]
    assert _check(dist, mixed).improved > 0


def test_fold_touches_a_fraction_of_the_matrix():
    graph = _dyadic(gen.power_grid_like(300, seed=1))
    dist = superfw(graph, seed=0).dist
    edges = graph.edge_array()
    fold = _check(dist, [(int(edges[7, 0]), int(edges[7, 1]),
                          float(edges[7, 2]) / 2)])
    assert 0 < fold.improved <= fold.pairs < graph.n ** 2 // 2


def test_apply_batch_improvements_is_the_fold_count():
    graph = _dyadic(gen.grid2d(7, 7, seed=4))
    dist = superfw(graph, seed=0).dist
    updates = [(0, 48, Q), (3, 4, Q)]
    a, b = dist.copy(), dist.copy()
    assert apply_batch_improvements(a, updates) == fold_batch(b, updates).improved
    assert np.array_equal(a, b)


def test_session_fold_records_rows_and_pairs_on_the_commit():
    graph = _dyadic(gen.power_grid_like(200, seed=3))
    session = APSPSession(graph, seed=0)
    session.solve()
    edges = graph.edge_array()
    u, v, w = int(edges[5, 0]), int(edges[5, 1]), float(edges[5, 2])
    expected = fold_batch(np.array(session.dist), [(u, v, w / 4)])
    tracer = Tracer()
    with use_tracer(tracer):
        session.apply_updates([(u, v, w / 4)])
        info = session.commit()
    assert info.decision == "fold"
    assert info.improved == expected.improved > 0
    assert info.router["rows"] == expected.rows > 0
    assert info.router["pairs"] == expected.pairs > 0
    assert session.epoch.meta["router"]["pairs"] == expected.pairs
    (span,) = [e for e in tracer.events() if e.name == "session-commit"]
    assert span.args["decision"] == "fold"
    assert span.args["rows"] == expected.rows
    assert span.args["pairs"] == expected.pairs
    # A re-solve commit's span carries no fold attributes.
    tracer = Tracer()
    with use_tracer(tracer):
        session.apply_updates([(u, v, w * 4)])
        info = session.commit()
    assert info.decision == "resolve" and "rows" not in info.router
    (span,) = [e for e in tracer.events() if e.name == "session-commit"]
    assert span.args["decision"] == "resolve" and "rows" not in span.args


def test_session_fold_allocates_one_matrix():
    graph = _dyadic(gen.grid2d(18, 18, seed=0))
    n = graph.n
    session = APSPSession(graph, seed=0)
    session.solve()
    edges = graph.edge_array()
    updates = [(int(e[0]), int(e[1]), float(e[2]) / 4) for e in edges[::60]]
    session.apply_updates(updates)
    tracemalloc.start()
    try:
        info = session.commit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.decision == "fold" and info.improved > 0
    # The new epoch's n × n matrix, plus O(n p) and block-sized scratch:
    # no second n × n array.
    assert n * n * 8 <= peak < 2 * n * n * 8
    assert np.array_equal(session.dist, superfw(session.graph, seed=0).dist)
    # The full sandwich on the same batch needs far more.
    dist = np.array(session.dist)
    tracemalloc.start()
    try:
        sandwich_fold(dist, updates)
        sandwich_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sandwich_peak >= 2 * n * n * 8

"""Property-based tests for directed graphs and ordering robustness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dense_fw import floyd_warshall
from repro.core.johnson import johnson_apsp
from repro.core.superfw import superfw
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.ordering.base import Ordering


@st.composite
def random_digraphs(draw, max_n=18, negative=False):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(0, 3 * n))
    arcs = []
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u == v:
            continue
        w = draw(st.floats(0.1, 5.0, allow_nan=False))
        arcs.append((u, v, w))
    dg = DiGraph.from_edges(n, arcs)
    if negative and dg.num_arcs:
        # Potential reweighting keeps cycle sums nonnegative while pushing
        # individual arcs negative.
        h = np.array([draw(st.floats(0, 3)) for _ in range(n)])
        triples = dg.arc_array()
        u = triples[:, 0].astype(int)
        v = triples[:, 1].astype(int)
        dg = dg.with_weights(triples[:, 2] + h[u] - h[v])
    return dg


@given(dg=random_digraphs())
@settings(max_examples=30, deadline=None)
def test_directed_superfw_equals_dense(dg):
    assert np.allclose(
        superfw(dg, seed=0, leaf_size=4).dist, floyd_warshall(dg).dist
    )


@given(dg=random_digraphs(negative=True))
@settings(max_examples=25, deadline=None)
def test_negative_arcs_superfw_equals_johnson(dg):
    """With potential-reweighted (cycle-safe) negative arcs, all agree."""
    a = superfw(dg, seed=0, leaf_size=4).dist
    b = johnson_apsp(dg).dist
    assert np.allclose(a, b)


@given(dg=random_digraphs())
@settings(max_examples=20, deadline=None)
def test_transpose_duality(dg):
    """dist_G(i, j) == dist_{G^T}(j, i)."""
    fwd = floyd_warshall(dg).dist
    rev = floyd_warshall(dg.transpose()).dist
    assert np.allclose(fwd, rev.T)


@given(dg=random_digraphs(max_n=14), seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_directed_relabeling_invariance(dg, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dg.n)
    base = superfw(dg, seed=0, leaf_size=4).dist
    permuted = superfw(dg.permute(perm), seed=0, leaf_size=4).dist
    assert np.allclose(permuted, base[np.ix_(perm, perm)])


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_arbitrary_ordering_accepted(seed):
    """Any permutation works as a SuperFW ordering (etree parents are
    higher-numbered by construction, so no postordering is needed)."""
    from repro.graphs.generators import erdos_renyi

    rng = np.random.default_rng(seed)
    g = erdos_renyi(20, avg_degree=3.0, seed=seed)
    random_ord = Ordering(perm=rng.permutation(g.n), method="random")
    got = superfw(g, ordering=random_ord, leaf_size=4)
    expect = floyd_warshall(g)
    assert np.allclose(got.dist, expect.dist)


@given(dg=random_digraphs(max_n=14))
@settings(max_examples=20, deadline=None)
def test_treewidth_solver_equals_dense_directed(dg):
    from repro.core.api import apsp

    assert np.allclose(apsp(dg, method="treewidth").dist, floyd_warshall(dg).dist)


@given(dg=random_digraphs(max_n=14), seed=st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_treewidth_sssp_rows_match(dg, seed):
    from repro.plan import APSPSession
    from repro.serve import HubLabelIndex

    index = HubLabelIndex.build(APSPSession(dg, seed=0))
    ref = floyd_warshall(dg).dist
    rng = np.random.default_rng(seed)
    s = int(rng.integers(0, dg.n))
    row = index.query_many(np.full(dg.n, s), np.arange(dg.n))
    assert np.allclose(row, ref[s])


def test_superfw_rejects_non_tropical_semiring():
    import pytest

    from repro.semiring import BOOLEAN

    g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    # The sweep is min-plus only; it has no semiring parameter to pass.
    with pytest.raises(TypeError, match="semiring"):
        superfw(g, semiring=BOOLEAN)

"""Property-based fuzzing of ``APSPSession.update_edge`` against full recomputes.

Weights are dyadic (``quantize_weights``), so every fold and every
re-solve must equal a from-scratch solve bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental import WEIGHT_QUANTUM, quantize_weights
from repro.core.superfw import superfw
from repro.graphs.generators import erdos_renyi
from repro.plan.session import APSPSession


def _dyadic(x: float) -> float:
    return max(WEIGHT_QUANTUM, round(x / WEIGHT_QUANTUM) * WEIGHT_QUANTUM)


@given(
    seed=st.integers(0, 500),
    updates=st.lists(
        st.tuples(
            st.integers(0, 10_000),  # edge selector
            st.floats(0.05, 3.0, allow_nan=False),  # weight multiplier
        ),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=25, deadline=None)
def test_random_update_streams_stay_consistent(seed, updates):
    """Arbitrary interleavings of decreases/increases/new edges match a
    from-scratch solve bit for bit after every step."""
    g = quantize_weights(erdos_renyi(18, avg_degree=3.0, seed=seed))
    weights_before = g.weights.copy()
    sess = APSPSession(g, seed=0)
    rng = np.random.default_rng(seed)
    for selector, factor in updates:
        if selector % 3 == 0:
            # Touch a non-edge (insert) with a fresh random weight.
            u, v = rng.integers(0, g.n, 2)
            if u == v:
                continue
            sess.update_edge(int(u), int(v), _dyadic(factor))
        else:
            edges = sess.graph.edge_array()
            e = edges[selector % edges.shape[0]]
            sess.update_edge(int(e[0]), int(e[1]), _dyadic(float(e[2]) * factor))
        reference = superfw(sess.graph, seed=0, leaf_size=4).dist
        assert np.array_equal(sess.dist, reference)
    assert np.array_equal(g.weights, weights_before)  # caller's graph untouched


@given(seed=st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_improvement_count_brackets_matrix_delta(seed):
    """The reported improvement count covers every genuinely changed entry
    (an entry improved by both undirected passes may be counted twice)."""
    g = quantize_weights(erdos_renyi(20, avg_degree=3.0, seed=seed))
    sess = APSPSession(g, seed=0)
    before = np.array(sess.dist)
    edges = g.edge_array()
    e = edges[seed % edges.shape[0]]
    count = sess.update_edge(int(e[0]), int(e[1]), _dyadic(float(e[2]) * 0.01))
    changed = int(np.sum(sess.dist < before - 1e-12))
    assert sess.fast_updates == 1
    assert changed <= count <= 2 * changed

"""The supernodal multifrontal DPC of :mod:`repro.serve.factor` (§6).

SuperFW "closely resembles the right-looking variant" of a sparse
factorization; the factor passes run the multifrontal schedule (fronts,
extend-add up the etree) and then descend the etree.  Both schedules
compute the same distances, so every chain block equals the matching
entries of the SuperFW sweep's matrix.
"""

import numpy as np
import pytest

from repro.core.incremental import quantize_weights
from repro.core.superfw import superfw
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import barabasi_albert, delaunay_mesh, grid2d
from repro.plan import analyze
from repro.resilience.errors import NegativeCycleError
from repro.obs.metrics import OpCounter
from repro.serve.factor import factor_chain_blocks, factor_pass_ops

from conftest import scipy_apsp


def _chain_blocks_match(graph, dist, compare) -> None:
    """Check every chain block of ``graph``'s factor against ``dist``."""
    plan = analyze(graph, seed=0)
    st, perm = plan.structure, plan.ordering.perm
    to_flat, from_flat, block_ptr = factor_chain_blocks(
        st, plan.snode_rows, graph, perm
    )
    d = dist[np.ix_(perm, perm)]
    for s in range(st.ns):
        chain, a = [], s
        while a >= 0:
            chain.extend(range(*st.col_range(a)))
            a = st.parent[a]
        lo, hi = st.col_range(s)
        shape = (hi - lo, len(chain))
        to_block = to_flat[block_ptr[s]:block_ptr[s + 1]].reshape(shape)
        from_block = from_flat[block_ptr[s]:block_ptr[s + 1]].reshape(shape)
        assert compare(to_block, d[lo:hi][:, chain])
        assert compare(from_block, d[chain][:, lo:hi].T)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: grid2d(9, 9, seed=0),
        lambda: delaunay_mesh(150, seed=1),
        lambda: barabasi_albert(80, 4, seed=2),
    ],
    ids=["grid", "delaunay", "ba"],
)
def test_schedules_produce_identical_factor(builder):
    """Multifrontal factor and right-looking sweep agree bit for bit on
    dyadic weights, where every min-plus sum is exact."""
    graph = quantize_weights(builder())
    _chain_blocks_match(graph, superfw(graph, seed=0).dist, np.array_equal)


def test_directed_schedule_equivalence():
    rng = np.random.default_rng(0)
    arcs = [
        (int(u), int(v), float(rng.uniform(0.1, 2)))
        for u, v in rng.integers(0, 60, (220, 2))
        if u != v
    ]
    dg = quantize_weights(DiGraph.from_edges(60, arcs))
    _chain_blocks_match(dg, superfw(dg, seed=0).dist, np.array_equal)


def test_multifrontal_composes_with_p3c(mesh_graph):
    """Ascending multifrontal DPC + the descending (P3C-style) chain pass
    => every chain block holds true distances."""
    _chain_blocks_match(mesh_graph, scipy_apsp(mesh_graph), np.allclose)


def test_ops_counted(mesh_graph):
    plan = analyze(mesh_graph, seed=0)
    counter = OpCounter()
    factor_chain_blocks(plan.structure, plan.snode_rows, mesh_graph,
                        plan.ordering.perm, counter=counter)
    assert all(counter.counts[k] > 0 for k in ("diag", "panel", "outer", "descend"))
    assert counter.total == sum(
        int(ops.sum()) for ops in factor_pass_ops(plan.structure, plan.snode_rows)
    )


def test_negative_cycle_detected():
    dg = DiGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, -5.0)])
    plan = analyze(dg, seed=0)
    with pytest.raises(NegativeCycleError):
        factor_chain_blocks(plan.structure, plan.snode_rows, dg,
                            plan.ordering.perm)

"""End-to-end integration: the full pipeline on every suite graph class.

For each Table 3 surrogate (at reduced scale): build → order → symbolic →
SuperFW solve → certificate check → cross-check against Dijkstra.
"""

import numpy as np
import pytest

from repro.core.dijkstra import sssp_dijkstra
from repro.core.superfw import superfw
from repro.plan import analyze
from repro.graphs.suite import get_entry, suite_names
from repro.graphs.validation import check_apsp_certificate


@pytest.mark.parametrize("name", suite_names())
def test_pipeline_on_suite_graph(name):
    graph = get_entry(name).build(size_factor=0.12, seed=0)
    plan = analyze(graph, seed=0)
    result = superfw(graph, plan=plan)
    # Certificate: feasibility + optimality conditions, no recomputation.
    check_apsp_certificate(graph, result.dist)
    # Spot-check three rows against an independent Dijkstra.
    rng = np.random.default_rng(0)
    for s in rng.integers(0, graph.n, size=3):
        assert np.allclose(result.dist[s], sssp_dijkstra(graph, int(s)))
    # Structure sanity: supernodes tile the matrix, ops were counted.
    assert plan.structure.snode_ptr[-1] == graph.n
    assert result.ops.total > 0


def test_plan_is_reusable_across_weight_changes():
    """Sparse-solver idiom: one symbolic analysis, many numeric solves."""
    graph = get_entry("delaunay_n14").build(size_factor=0.2, seed=0)
    plan = analyze(graph, seed=0)
    r1 = superfw(graph, plan=plan)
    check_apsp_certificate(graph, r1.dist)
    # Same structure, new weights: the plan stays valid because symbolic
    # analysis depends only on the pattern.
    reweighted = graph.with_weights(graph.weights * 3.0)
    plan2 = analyze(reweighted, ordering=plan.ordering)
    r2 = superfw(reweighted, plan=plan2)
    assert np.allclose(r2.dist[np.isfinite(r2.dist)], 3.0 * r1.dist[np.isfinite(r1.dist)])


def test_all_backends_agree_end_to_end():
    from repro import apsp, available_methods

    graph = get_entry("USpowerGrid").build(size_factor=0.2, seed=1)
    reference = None
    for method in available_methods():
        dist = apsp(graph, method=method).dist
        if reference is None:
            reference = dist
        else:
            assert np.allclose(dist, reference), method

"""The one SuperFW cost law equals the sweep's OpCounter, exactly.

:func:`repro.symbolic.structure.superfw_snode_ops` prices every model
decision — the update router, ``ordering="auto"`` and the scaling
simulator — so these tests pin it to the measured op count with ``==``.
The factor-built hub labels' two passes have their own law,
:func:`repro.serve.factor.factor_pass_ops`, pinned the same way.
"""

from functools import partial

import numpy as np
import pytest

from repro.core.superfw import superfw
from repro.graphs import generators as gen
from repro.graphs.digraph import DiGraph, orient_randomly
from repro.graphs.graph import Graph
from repro.graphs.suite import get_entry
from repro.parallel.tasks import supernode_costs
from repro.plan import APSPSession
from repro.plan.plan import analyze
from repro.plan.router import UpdateRouter
from repro.obs import Tracer, use_tracer
from repro.obs.metrics import OpCounter
from repro.serve import HubLabelIndex
from repro.serve.factor import factor_chain_blocks, factor_pass_ops
from repro.symbolic.fill import symbolic_cholesky
from repro.symbolic.structure import (
    build_structure,
    panel_rows,
    superfw_snode_ops,
)

from test_reduce import _graph as reduce_fixture


def _digraph() -> DiGraph:
    rng = np.random.default_rng(3)
    arcs = {(int(u), int(v)) for u, v in rng.integers(0, 60, (150, 2)) if u != v}
    return DiGraph.from_edges(
        60, [(u, v, float(rng.integers(1, 9))) for u, v in sorted(arcs)]
    )


def _forest() -> Graph:
    """Three components (two grids and a path): a supernodal etree forest."""
    a, b = gen.grid2d(6, 6, seed=0), gen.grid2d(5, 4, seed=1)
    rows = [tuple(e) for e in a.edge_array()]
    rows += [(u + a.n, v + a.n, w) for u, v, w in b.edge_array()]
    off = a.n + b.n
    rows += [(off + i, off + i + 1, 1.0) for i in range(9)]
    return Graph.from_edges(off + 10, rows)


#: Directed graphs analyzed with ``reduce=True``: the trail reads the
#: symmetric pattern, and the plan orders its clique fill.
DIRECTED_REDUCED = {
    "digraph": _digraph,
    "road": lambda: orient_randomly(gen.road_network_like(1500, seed=0), seed=0),
    "power-grid": lambda: orient_randomly(gen.power_grid_like(1000, seed=0),
                                          seed=0),
    **{f"{kind}-{seed}": partial(reduce_fixture, kind, seed)
       for kind in ("directed", "directed-negative", "directed-disconnected")
       for seed in (0, 1, 2)},
}

FIXTURES = {
    **{f"reduce-{name}": (build, {"reduce": True})
       for name, build in DIRECTED_REDUCED.items()},
    "mesh-nd": (lambda: gen.delaunay_mesh(160, seed=1), {"ordering": "nd"}),
    "mesh-amd": (lambda: gen.delaunay_mesh(160, seed=1), {"ordering": "amd"}),
    "digraph": (_digraph, {}),
    "reduce": (lambda: gen.power_grid_like(140, seed=4), {"reduce": True}),
    # Analyzed without chain relaxation before the cost-law merge
    # replaced it; the id is kept so its history stays comparable.
    "no-relax": (lambda: gen.grid2d(10, 10, seed=0), {}),
    "forest": (_forest, {}),
    "empty": (lambda: Graph.from_edges(0, []), {"ordering": "auto"}),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_law_equals_sweep_ops(name):
    build, options = FIXTURES[name]
    g = build()
    plan = analyze(g, seed=0, **options)
    ops = superfw_snode_ops(plan.structure)
    assert ops.shape == (plan.structure.ns,)
    assert int(ops.sum()) == superfw(g, plan=plan).ops.total
    # The simulator indexes the same array.
    assert [t.work for t in supernode_costs(plan.structure)] == ops.tolist()


def test_fixture_plans_are_amalgamated():
    # The laws above are pinned on merged blocks: every fixture plan but
    # the empty one has fewer blocks than its fundamental supernodes.
    for name, (build, options) in FIXTURES.items():
        plan = analyze(build(), seed=0, **options)
        merge_free = build_structure(
            symbolic_cholesky(plan.pattern, plan.ordering.perm))
        assert plan.structure.ns < merge_free.ns or plan.n == 0, name


@pytest.mark.parametrize("name", sorted(DIRECTED_REDUCED))
def test_directed_reduced_plans_sweep_fewer_ops(name):
    # The symmetric quotient neighborhoods are structural fill, yet every
    # directed reduced plan still sweeps fewer ops than the unreduced one.
    g = DIRECTED_REDUCED[name]()
    reduced = analyze(g, seed=0, reduce=True)
    assert reduced.trail is not None
    full = analyze(g, seed=0)
    assert (superfw(g, plan=reduced).ops.total
            < superfw(g, plan=full).ops.total)


def test_panel_rows_match_row_arrays(mesh_graph):
    st = analyze(mesh_graph, seed=0).structure
    expected = [
        st.descendant_vertices(s).shape[0] + st.ancestor_vertices(s).shape[0]
        for s in range(st.ns)
    ]
    assert panel_rows(st).tolist() == expected


@pytest.mark.parametrize("reduce", [False, True])
def test_auto_candidates_price_their_measured_ops(reduce):
    g = gen.power_grid_like(140, seed=4)
    report = analyze(g, ordering="auto", reduce=reduce, seed=0).score_report
    for name, cand in report["candidates"].items():
        plan = analyze(g, ordering=name, reduce=reduce, seed=0)
        assert cand["modeled_ops"] == superfw(g, plan=plan).ops.total


def test_auto_picks_the_cheaper_candidate_on_a_mesh():
    # The fill-row proxy ranked AMD first here, though its sweep runs
    # about 2.5x the ops of ND's on only 20% fewer supernodes.
    g = get_entry("t60k").build(size_factor=0.5, seed=0)
    report = analyze(g, ordering="auto", seed=0).score_report
    measured = {
        name: superfw(g, plan=analyze(g, ordering=name, seed=0)).ops.total
        for name in report["candidates"]
    }
    assert measured[report["picked"]] == min(measured.values())


def test_router_prices_a_resolve_at_its_measured_ops(grid_graph):
    plan = analyze(grid_graph, seed=0)
    router = UpdateRouter(plan)
    assert router.stats()["solve_ops"] == superfw(grid_graph, plan=plan).ops.total


def test_commit_records_measured_ops(grid_graph):
    sess = APSPSession(grid_graph)
    sess.solve()
    u, v, w = sess.graph.edge_array()[0]
    sess.apply_updates([(int(u), int(v), float(w) * 2.0)])
    info = sess.commit()
    assert info.decision == "resolve"
    assert info.actual_ops == sess.last_result.ops.total
    assert info.router["actual_ops"] == info.actual_ops
    assert info.router["predicted_ops"]["resolve"] == info.actual_ops


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_factor_pass_law_equals_its_op_counter(name):
    build, options = FIXTURES[name]
    g = build()
    plan = analyze(g, seed=0, **options)
    # A reduced plan's passes run on the reduced graph.
    reduced = g if plan.trail is None else plan.trail.apply(g).graph
    counter = OpCounter()
    factor_chain_blocks(plan.structure, plan.snode_rows, reduced,
                        plan.ordering.perm, counter=counter)
    ascending, descending = factor_pass_ops(plan.structure, plan.snode_rows)
    counts = counter.counts
    assert int(ascending.sum()) == sum(
        counts.get(k, 0) for k in ("diag", "panel", "outer")
    )
    assert int(descending.sum()) == counts.get("descend", 0)
    # A factor-built index reports the same total on its build span.
    tracer = Tracer()
    with use_tracer(tracer):
        index = HubLabelIndex.build(APSPSession(g, plan=plan))
    assert index.source == "factor"
    (span,) = [e for e in tracer.events() if e.name == "hub-index-build"]
    assert span.args["ops"] == counter.total

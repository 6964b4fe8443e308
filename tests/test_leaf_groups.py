"""Leaf groups: sibling leaf supernodes that share ``A(s)`` run as one task.

The sequential sweep runs each
:meth:`~repro.symbolic.structure.SupernodalStructure.leaf_groups` group
as one task with one outer GEMM over the stacked panels.  These tests
pin the task list, the bits (generator weights, not dyadic: the fused
product must form exactly the per-leaf candidates), the negative-cycle
witness, fault recovery, budget units and the sweep's exact GEMM-call
law.
"""

import numpy as np
import pytest

from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import eliminate_supernode, leaf_tasks, superfw
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import barabasi_albert, delaunay_mesh
from repro.graphs.graph import Graph
from repro.obs import Tracer, use_tracer
from repro.plan import analyze
from repro.resilience.budget import SolveBudget
from repro.resilience.errors import NegativeCycleError
from repro.resilience.faults import FaultSpec, inject_faults
from repro.resilience.retry import RetryPolicy

from conftest import GRAPH_BUILDERS


def _arcs(graph) -> np.ndarray:
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    return np.column_stack([rows, graph.indices, graph.weights])


def _allclose_only(graph: Graph) -> Graph:
    """``graph`` with one arc 2⁻³⁰ heavier than its reverse."""
    w = graph.weights.copy()
    w[0] += 2.0**-30
    return graph.with_weights(w)


def _negative_digraph(graph: Graph) -> DiGraph:
    """Asymmetric arcs, many negative, and no negative cycle.

    Johnson's reweighting ``w(u, v) + p(u) - p(v)`` of nonnegative arcs
    keeps every cycle's length, so only the arcs turn negative.
    """
    arcs = _arcs(graph)
    u, v = arcs[:, 0].astype(np.int64), arcs[:, 1].astype(np.int64)
    p = np.random.default_rng(7).uniform(0.0, 2.0, graph.n)
    w = arcs[:, 2] * np.where(u < v, 1.0, 1.5) + p[u] - p[v]
    assert (w < 0).any()
    return DiGraph.from_edges(graph.n, np.column_stack([u, v, w]))


GRAPHS = {
    "preferential-attachment": lambda: barabasi_albert(200, 3, seed=1),
    "delaunay": lambda: delaunay_mesh(160, seed=3),
    "allclose-only": lambda: _allclose_only(barabasi_albert(200, 3, seed=1)),
    "negative-digraph": lambda: _negative_digraph(barabasi_albert(200, 3, seed=1)),
}


def _per_supernode_sweep(graph, plan) -> np.ndarray:
    """The sequential sweep one supernode at a time, in original order."""
    perm = plan.ordering.perm
    dist = graph.to_dense_dist()[np.ix_(perm, perm)]
    for s in range(plan.structure.ns):
        eliminate_supernode(dist, plan.structure, s)
    iperm = np.argsort(perm)
    return dist[np.ix_(iperm, iperm)]


def _calls(result) -> int:
    return sum(v["calls"] for v in result.meta["engine"]["strategies"].values())


@pytest.mark.parametrize("name", sorted(GRAPH_BUILDERS) + sorted(GRAPHS))
def test_every_supernode_sits_in_exactly_one_task(name):
    graph = {**GRAPH_BUILDERS, **GRAPHS}[name]()
    st = analyze(graph, seed=0).structure
    tasks = leaf_tasks(st, range(st.ns))
    members = [m for t in tasks for m in (t if isinstance(t, tuple) else (t,))]
    assert sorted(members) == list(range(st.ns))
    groups = [t for t in tasks if isinstance(t, tuple)]
    assert groups == st.leaf_groups()
    # Each task sits in the slot of its last member.
    lasts = [t[-1] if isinstance(t, tuple) else t for t in tasks]
    assert lasts == sorted(lasts)
    for group in groups:
        assert len(group) >= 2 and list(group) == sorted(group)
        runs = [st.row_runs(s) for s in group]
        assert all(r.nd == 0 and r.anc == runs[0].anc for r in runs)
    # Groups are maximal: no two single-supernode leaves share A(s).
    single = [st.row_runs(t).anc for t in tasks
              if not isinstance(t, tuple) and st.row_runs(t).nd == 0]
    assert len(single) == len(set(single))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_sequential_sweep_equals_the_per_supernode_loop(name):
    graph = GRAPHS[name]()
    plan = analyze(graph, seed=0)
    assert plan.structure.leaf_groups()
    expected = _per_supernode_sweep(graph, plan)
    assert np.array_equal(superfw(graph, plan=plan).dist, expected)
    # The thread executor runs no groups and lands on the same bits.
    threaded = parallel_superfw(graph, plan=plan, num_workers=2)
    assert np.array_equal(threaded.dist, expected)


def test_undirected_negative_edge_keeps_its_witness():
    graph = barabasi_albert(200, 3, seed=1)
    plan = analyze(graph, seed=0)
    # A negative edge at a vertex of the largest leaf group.
    group = max(plan.structure.leaf_groups(), key=len)
    u = int(plan.ordering.perm[plan.structure.col_range(group[0])[0]])
    v = int(graph.indices[graph.indptr[u]])
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    w = graph.weights.copy()
    w[((rows == u) & (graph.indices == v)) | ((rows == v) & (graph.indices == u))] = -0.25
    negative = graph.with_weights(w)
    perm = plan.ordering.perm
    dist = negative.to_dense_dist()[np.ix_(perm, perm)]
    for s in range(plan.structure.ns):
        eliminate_supernode(dist, plan.structure, s)
    with pytest.raises(NegativeCycleError) as raised:
        superfw(negative, plan=plan)
    assert raised.value.witness == int(perm[int(np.argmin(np.diag(dist)))])


@pytest.mark.parametrize("spec", [
    FaultSpec(seed=3, task_failure_rate=0.3),
    FaultSpec(seed=3, kernel_error_rate=0.02),
    # Every attempt of the 21-member group fails here, so its re-run
    # splits it into its members.
    FaultSpec(seed=1, kernel_error_rate=0.05),
], ids=["task", "kernel", "kernel-split-rerun"])
def test_injected_faults_retry_bit_exactly(spec):
    graph = barabasi_albert(200, 3, seed=1)
    plan = analyze(graph, seed=0)
    expected = superfw(graph, plan=plan).dist
    tracker = SolveBudget(max_ops=1e15).start()
    with inject_faults(spec):
        r = superfw(graph, plan=plan, retry=RetryPolicy(max_attempts=8),
                    budget=tracker)
    assert r.meta["recovery"]["task_retries"] > 0
    assert np.array_equal(r.dist, expected)
    assert tracker.units_done == tracker.units_total == plan.structure.ns
    reruns = r.meta["recovery"]["sequential_reruns"]
    if spec.kernel_error_rate == 0.05:
        assert reruns == list(max(plan.structure.leaf_groups(), key=len))


@pytest.mark.parametrize("name", ["preferential-attachment", "allclose-only",
                                  "negative-digraph"])
def test_gemm_calls_are_panel_gemms_plus_one_outer_per_task(name):
    graph = GRAPHS[name]()
    plan = analyze(graph, seed=0)
    st = plan.structure
    r = superfw(graph, plan=plan)
    with_rows = [s for s in range(st.ns) if st.row_runs(s).nd + st.row_runs(s).na]
    mirrored = isinstance(graph, Graph) and name != "allclose-only"
    panel_gemms = (1 if mirrored else 2) * len(with_rows)
    tasks = leaf_tasks(st, range(st.ns))
    outer_gemms = sum(
        1 for t in tasks if (t[-1] if isinstance(t, tuple) else t) in with_rows
    )
    assert _calls(r) == panel_gemms + outer_gemms
    assert outer_gemms < len(with_rows)


def test_a_group_traces_one_eliminate_span_and_per_member_kernels():
    graph = barabasi_albert(200, 3, seed=1)
    plan = analyze(graph, seed=0)
    st = plan.structure
    tracer = Tracer()
    with use_tracer(tracer):
        superfw(graph, plan=plan)
    events = tracer.events()
    elim = [e for e in events if e.name == "eliminate"]
    tasks = leaf_tasks(st, range(st.ns))
    assert [e.args["snode"] for e in elim] == [
        t[-1] if isinstance(t, tuple) else t for t in tasks
    ]
    assert [e.args.get("members", 1) for e in elim] == [
        len(t) if isinstance(t, tuple) else 1 for t in tasks
    ]
    assert sorted(e.args["snode"] for e in events if e.name == "diag") == list(
        range(st.ns)
    )


def test_escalated_sequential_executor_fuses_a_level_s_groups():
    graph = barabasi_albert(200, 3, seed=1)
    plan = analyze(graph, seed=0)
    expected = superfw(graph, plan=plan).dist
    tracer = Tracer()
    with use_tracer(tracer), inject_faults(FaultSpec(seed=0, worker_kill_rate=1.0)):
        r = parallel_superfw(
            graph, plan=plan, backend="process", num_workers=2,
            supervise={"max_pool_rebuilds": 0, "escalate": "sequential"},
        )
    assert r.meta["recovery"]["escalations"] == ["sequential"]
    assert np.array_equal(r.dist, expected)
    fused = [e for e in tracer.events() if e.name == "eliminate" and "members" in e.args]
    assert sorted(e.args["members"] for e in fused) == sorted(
        len(g) for g in plan.structure.leaf_groups()
    )

"""The hub-label factor's ascending pass mirrors symmetric fronts.

When every arc has a reverse arc of the same bits, each front of
``repro.serve.factor.factor_chain_blocks`` is symmetric bit for bit:
the pass runs the column PanelUpdate only, takes the row panel as its
transpose, and forms the ``r × r`` update with the engine's symmetric
staircase.  The chain blocks, and so every label, must be byte-identical
to the full pass, and the op counter must keep charging the law.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.superfw import _start_matrix
from repro.graphs import generators as gen
from repro.graphs.digraph import DiGraph, orient_randomly
from repro.graphs.graph import Graph
from repro.obs.metrics import OpCounter
from repro.plan import APSPSession, analyze
from repro.semiring.engine import get_engine
from repro.serve import HubLabelIndex
from repro.serve import factor
from repro.util.perm import invert_permutation


def _allclose_only(graph: Graph) -> Graph:
    w = graph.weights.copy()
    w[0] += 2.0**-30  # one arc a hair heavier than its reverse
    return graph.with_weights(w)


def _symmetric_digraph(graph: Graph) -> DiGraph:
    rows = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    return DiGraph.from_edges(
        graph.n, np.column_stack([rows, graph.indices, graph.weights])
    )


GRAPHS = {
    "preferential-attachment": lambda: gen.barabasi_albert(150, 3, seed=1),
    "delaunay": lambda: gen.delaunay_mesh(140, seed=3),
    "road": lambda: gen.road_network_like(200, seed=2),
    "power-grid": lambda: gen.power_grid_like(160, seed=4),
    "allclose-only": lambda: _allclose_only(gen.barabasi_albert(150, 3, seed=1)),
    "symmetric-digraph": lambda: _symmetric_digraph(gen.grid2d(9, 9, seed=0)),
    "asymmetric-digraph": lambda: orient_randomly(gen.grid2d(9, 9, seed=0), seed=1),
}
MIRRORED = {"preferential-attachment", "delaunay", "road", "power-grid",
            "symmetric-digraph"}


def _factor(graph, plan, dtype, mirror=None):
    """Chain blocks, op counts, engine calls and the pass's mirror decision."""
    seen = []
    decide = factor._arcs_mirrored

    def spy(*args):
        seen.append(decide(*args) if mirror is None else mirror)
        return seen[-1]

    engine = get_engine()
    counter = OpCounter()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(factor, "_arcs_mirrored", spy)
        before = engine.stats_snapshot()
        blocks = factor.factor_chain_blocks(
            plan.structure, plan.snode_rows, graph, plan.ordering.perm,
            dtype=dtype, counter=counter,
        )
        calls = engine.stats_snapshot()["calls"] - before["calls"]
    (decided,) = seen
    return blocks, dict(counter.counts), calls, decided


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_mirror_decision_agrees_with_the_sweep(name, dtype):
    graph = GRAPHS[name]()
    plan = analyze(graph)
    iperm = invert_permutation(np.asarray(plan.ordering.perm))
    _, sweep_mirror = _start_matrix(graph, iperm, dtype)
    *_, decided = _factor(graph, plan, dtype)
    assert decided == sweep_mirror
    # In float32 the allclose-only nudge rounds away: both then mirror.
    expected = name in MIRRORED or (name == "allclose-only" and dtype is np.float32)
    assert decided == expected


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", sorted(MIRRORED))
def test_mirrored_pass_is_bit_identical_to_the_full_pass(name, dtype):
    graph = GRAPHS[name]()
    plan = analyze(graph)
    mirrored, ops, calls, decided = _factor(graph, plan, dtype)
    full, full_ops, full_calls, _ = _factor(graph, plan, dtype, mirror=False)
    assert decided
    for a, b in zip(mirrored, full):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # The law charges both PanelUpdates; one GEMM per front is skipped.
    assert ops == full_ops
    ascending, _ = factor.factor_pass_ops(plan.structure, plan.snode_rows)
    assert sum(ops.get(k, 0) for k in ("diag", "panel", "outer")) == ascending.sum()
    fronts = sum(rows.shape[0] > 0 for rows in plan.snode_rows)
    assert full_calls - calls == fronts > 0


@pytest.mark.parametrize("reduce", [False, True])
def test_factor_built_labels_are_byte_identical(reduce, monkeypatch):
    graph = gen.road_network_like(240, seed=5)
    plan = analyze(graph, reduce=reduce)
    assert (plan.trail is not None) == reduce
    mirrored = HubLabelIndex.build(APSPSession(graph, plan=plan))
    monkeypatch.setattr(factor, "_arcs_mirrored", lambda *args: False)
    full = HubLabelIndex.build(APSPSession(graph, plan=plan))
    assert mirrored.source == full.source == "factor"
    for name in ("ptr", "hubs", "dto", "dfrom"):
        assert getattr(mirrored, name).tobytes() == getattr(full, name).tobytes()

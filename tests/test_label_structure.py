"""The hub-label structure is built once per plan; epochs re-gather values.

Everything a :class:`~repro.serve.hub_index.HubLabelIndex` holds except
``dto``/``dfrom`` depends on the plan alone, so it is memoized per plan
and a new epoch's index costs two gathers.  On every kind of tick the
resliced index must equal a from-scratch build, array for array.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.incremental import quantize_weights
from repro.core.superfw import superfw
from repro.graphs import generators as gen
from repro.graphs.digraph import orient_randomly
from repro.obs import Tracer, use_tracer
from repro.plan import APSPSession, analyze
from repro.serve import DistanceServer, HubLabelIndex
from repro.serve import hub_index

ARRAYS = ("ptr", "hubs", "dto", "dfrom", "perm", "comp", "node", "parent",
          "depth", "pre", "span", "chain_len")


def _scratch_build(session, monkeypatch) -> HubLabelIndex:
    """An index built past the plan's memo: every array computed anew."""
    with monkeypatch.context() as m:
        m.setattr(hub_index, "_label_structure", hub_index._LabelStructure)
        return HubLabelIndex.build(session)


def _assert_same(index, scratch):
    for name in ARRAYS:
        a, b = getattr(index, name), getattr(scratch, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert index.ncomp == scratch.ncomp
    assert index.trail_events == scratch.trail_events
    assert index.epoch_index == scratch.epoch_index
    assert index.weights_digest == scratch.weights_digest


def _edge(session, i):
    e = session.graph.edge_array()[i]
    return int(e[0]), int(e[1]), float(e[2])


@pytest.mark.parametrize("kind", ["grid", "power-grid", "road-reduced"])
def test_every_tick_kind_reslices_like_a_scratch_build(kind, monkeypatch):
    graph = quantize_weights({
        "grid": lambda: gen.grid2d(9, 9, seed=0),
        "power-grid": lambda: gen.power_grid_like(160, seed=2),
        "road-reduced": lambda: gen.road_network_like(220, seed=1),
    }[kind]())
    server = DistanceServer(graph, seed=0, reduce=kind == "road-reduced")
    session = server.session
    assert (session.plan.trail is not None) == (kind == "road-reduced")
    factor = server.refresh()
    assert factor.source == "factor"
    session.solve()
    first = server.refresh()
    # The factor build made the structure; the epoch build reused it.
    assert first.source == "epoch" and first.hubs is factor.hubs
    _assert_same(first, _scratch_build(session, monkeypatch))
    u, v, w = _edge(session, 4)
    ticks = [
        ("fold", [(u, v, w / 4)]),
        ("resolve", [(u, v, w * 4)]),
        ("fold", [(u, v, w)]),
    ]
    previous = first
    for decision, updates in ticks:
        session.apply_updates(updates)
        assert session.commit(force=decision).decision == decision
        index = server.refresh()
        assert index.epoch_index == session.epoch.index
        # Same plan: the structure is shared, only the values moved.
        assert index.hubs is previous.hubs and index.span is previous.span
        _assert_same(index, _scratch_build(session, monkeypatch))
        previous = index
    dist = superfw(session.graph, seed=0).dist
    n = graph.n
    src, dst = np.divmod(np.arange(n * n), n)
    assert np.array_equal(previous.query_many(src, dst), dist.ravel())


def test_structural_insert_rebuilds_the_structure(monkeypatch):
    graph = quantize_weights(gen.grid2d(8, 8, seed=1))
    server = DistanceServer(graph, seed=0)
    session = server.session
    session.solve()
    before = server.refresh()
    old_plan = session.plan
    assert not graph.has_edge(0, 63)
    session.apply_updates([(0, 63, 2.0**-3)])
    info = session.commit(force="fold")
    assert info.decision == "fold" and info.inserts == 1
    assert session.plan is None  # the pattern changed
    index = server.refresh()  # re-solves on the re-analyzed plan
    assert session.plan is not old_plan
    assert index.hubs is not before.hubs
    _assert_same(index, _scratch_build(session, monkeypatch))
    assert index.query_one(0, 63) == 2.0**-3


def test_directed_epochs_reslice_like_a_scratch_build(monkeypatch):
    graph = quantize_weights(orient_randomly(gen.grid2d(7, 7, seed=2), seed=3))
    session = APSPSession(graph, seed=0)
    session.solve()
    first = HubLabelIndex.build(session)
    arcs = session.graph.arc_array()
    u, v, w = int(arcs[3, 0]), int(arcs[3, 1]), float(arcs[3, 2])
    session.apply_updates([(u, v, w / 8)])
    assert session.commit().decision == "fold"
    index = HubLabelIndex.build(session)
    assert index.hubs is first.hubs
    assert not np.array_equal(index.dto, first.dto)
    _assert_same(index, _scratch_build(session, monkeypatch))
    # Independently of any build: every label distance is the epoch's
    # entry, and the join answers the epoch's matrix.
    owner = np.repeat(np.arange(graph.n), np.diff(index.ptr))
    hub = index.perm[index.hubs]
    dist = np.asarray(session.dist)
    assert np.array_equal(index.dto, dist[owner, hub])
    assert np.array_equal(index.dfrom, dist[hub, owner])
    assert np.array_equal(index.all_pairs(), dist)


def test_epoch_build_keeps_its_span_and_metrics():
    graph = quantize_weights(gen.grid2d(6, 6, seed=0))
    session = APSPSession(graph, seed=0)
    HubLabelIndex.build(session)  # factor build: makes the structure
    session.solve()
    tracer = Tracer()
    with use_tracer(tracer):
        index = HubLabelIndex.build(session)
    names = [e.name for e in tracer.events()]
    (span,) = [e for e in tracer.events() if e.name == "hub-index-build"]
    assert span.args["source"] == "epoch" and span.args["ops"] == 0
    assert "hub-index-values" in names
    # The structure came from the memo: no label or shard pass ran.
    assert "hub-index-labels" not in names and "hub-index-shards" not in names
    assert tracer.metrics.snapshot()["counters"]["serve.index_builds"] == 1
    assert index.build_seconds == span.dur / 1e9


def test_structure_lives_on_its_plan():
    graph = gen.grid2d(6, 6, seed=0)
    plan = analyze(graph)
    assert plan._labels is None
    index = HubLabelIndex.build(APSPSession(graph, plan=plan))
    assert plan._labels.hubs is index.hubs
    # Another plan of the same graph builds its own.
    other = HubLabelIndex.build(APSPSession(graph, plan=analyze(graph)))
    assert other.hubs is not index.hubs
    assert other.hubs.tobytes() == index.hubs.tobytes()

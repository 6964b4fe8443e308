"""Counters, structural stats, and the preprocessing profiler."""

import numpy as np
import pytest

from repro.obs.metrics import OpCounter
from repro.analysis.profiling import profile_superfw
from repro.analysis.stats import fill_statistics, ordering_quality, suite_row
from repro.graphs.generators import grid2d
from repro.obs import Tracer, phase, use_tracer
from repro.ordering.nested_dissection import nested_dissection


def test_counter_accumulates():
    c = OpCounter()
    c.add("diag", 10)
    c.add("diag", 5)
    c.add("outer", 100)
    assert c.counts["diag"] == 15
    assert c.total == 115


def test_counter_merge_and_reset():
    a, b = OpCounter(), OpCounter()
    a.add("x", 1)
    b.add("x", 2)
    b.add("y", 3)
    a.merge(b)
    assert a.counts == {"x": 3, "y": 3}
    a.reset()
    assert a.total == 0


def test_counter_str():
    c = OpCounter()
    c.add("k", 7)
    assert "k=7" in str(c)


def test_timer_context():
    timings: dict[str, float] = {}
    with phase(timings, "work"):
        sum(range(1000))
    assert list(timings) == ["work"] and timings["work"] >= 0.0


def test_timing_breakdown_phases():
    timings = {"b": 1.0}
    with use_tracer(Tracer()) as tracer:
        with phase(timings, "a", "a-span", n=3) as span:
            span.set(late=True)
        with phase(timings, "b"):
            pass
    (a, b) = tracer.events()
    # One pair of clock reads feeds the timing and the span.
    assert (a.name, a.args) == ("a-span", {"n": 3, "late": True})
    assert timings["a"] == a.dur / 1e9
    assert timings["b"] == 1.0 + b.dur / 1e9
    assert b.name == "b"


def test_timing_fraction_empty():
    from repro.core.result import APSPResult

    # Nothing timed: the solve share of an empty timings dict is zero.
    assert APSPResult(dist=np.zeros((1, 1)), method="x").solve_seconds() == 0.0


def test_fill_statistics(grid_graph):
    nd = nested_dissection(grid_graph, seed=0)
    stats = fill_statistics(grid_graph, nd.perm)
    assert stats["nnz_factor"] >= grid_graph.nnz // 2
    assert stats["fill_ratio"] >= 1.0
    assert stats["fill_in"] == stats["nnz_factor"] - grid_graph.nnz // 2


def test_ordering_quality_ranks_nd_well():
    g = grid2d(10, 10, seed=0)
    q = ordering_quality(g, seed=0)
    assert q["nd"]["nnz_factor"] <= q["natural"]["nnz_factor"]
    assert q["top_separator"] > 0
    assert set(q) >= {"nd", "bfs", "rcm", "mmd", "natural"}


def test_suite_row_fields(grid_graph):
    nd = nested_dissection(grid_graph, seed=0)
    row = suite_row("grid", grid_graph, nd)
    assert row["name"] == "grid"
    assert row["n"] == grid_graph.n
    assert row["n_over_s"] == pytest.approx(grid_graph.n / max(nd.top_separator_size, 1))


def test_profile_superfw(grid_graph):
    report = profile_superfw(grid_graph, name="grid", seed=0)
    assert report.ordering_seconds > 0
    assert report.symbolic_seconds > 0
    assert report.solve_seconds > 0
    assert report.preprocessing_seconds == pytest.approx(
        report.ordering_seconds + report.symbolic_seconds
    )
    row = report.row()
    assert row["overhead_pct"] == pytest.approx(100 * report.overhead_fraction)

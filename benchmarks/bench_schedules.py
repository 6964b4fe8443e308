"""§6 scheduling-variant bench: right-looking vs left-looking vs multifrontal.

The paper: "Depending on scheduling, there are other variants namely,
left-looking, right-looking, multifrontal... The effect of different
scheduling strategies on performance can be found at [19, 34]."  All
three are implemented here over the same symbolic structure and produce
identical factors (tests); this bench records their relative cost on this
substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multifrontal import multifrontal_dpc
from repro.plan import analyze
from repro.core.treewidth import dpc_left_looking, dpc_right_looking
from repro.experiments.common import format_table, save_table
from repro.graphs.suite import get_entry
from repro.symbolic.fill import symbolic_cholesky


@pytest.fixture(scope="module")
def workload(bench_size_factor, bench_seed):
    graph = get_entry("delaunay_n14").build(size_factor=bench_size_factor, seed=bench_seed)
    plan = analyze(graph, seed=bench_seed)
    sym = symbolic_cholesky(plan.pattern or graph, plan.ordering.perm)
    perm = plan.ordering.perm
    w0 = graph.to_dense_dist()[np.ix_(perm, perm)]
    return graph, plan, sym, w0


def test_schedule_comparison_table(benchmark, workload):
    import time

    graph, plan, sym, w0 = workload

    def run():
        rows = []
        t0 = time.perf_counter()
        dpc_right_looking(w0.copy(), sym.col_struct)
        rows.append({"schedule": "right-looking", "ms": (time.perf_counter() - t0) * 1e3})
        t0 = time.perf_counter()
        dpc_left_looking(w0.copy(), sym.col_struct)
        rows.append({"schedule": "left-looking", "ms": (time.perf_counter() - t0) * 1e3})
        t0 = time.perf_counter()
        multifrontal_dpc(graph, plan=plan)
        rows.append({"schedule": "multifrontal", "ms": (time.perf_counter() - t0) * 1e3})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("schedules", format_table(rows))
    assert all(r["ms"] > 0 for r in rows)


def test_right_looking(benchmark, workload):
    _, _, sym, w0 = workload
    benchmark.pedantic(
        lambda: dpc_right_looking(w0.copy(), sym.col_struct), rounds=3, iterations=1
    )


def test_left_looking(benchmark, workload):
    _, _, sym, w0 = workload
    benchmark.pedantic(
        lambda: dpc_left_looking(w0.copy(), sym.col_struct), rounds=3, iterations=1
    )


def test_multifrontal(benchmark, workload):
    graph, plan, _, _ = workload
    benchmark.pedantic(
        lambda: multifrontal_dpc(graph, plan=plan), rounds=3, iterations=1
    )

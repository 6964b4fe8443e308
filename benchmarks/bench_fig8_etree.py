"""Fig. 8 bench: etree parallelism on/off at 32 simulated cores.

Prints the Fig. 8 comparison and benchmarks the two real executor modes
(threads with and without level scheduling) for schedule-overhead data.
"""

from __future__ import annotations

import pytest

from repro.core.parallel_superfw import parallel_superfw
from repro.plan import analyze
from repro.experiments.fig8 import run_fig8
from repro.graphs.suite import get_entry


def test_fig8_table(benchmark, bench_size_factor, bench_seed):
    from repro.experiments.common import format_table, save_table

    rows = benchmark.pedantic(
        lambda: run_fig8(size_factor=bench_size_factor, seed=bench_seed, procs=32),
        rounds=1,
        iterations=1,
    )
    save_table("fig8_etree_parallelism", format_table(rows))
    # The paper's claim: etree parallelism helps (≈2x), most on small graphs.
    assert all(r["etree_benefit"] >= 1.0 for r in rows)
    small = next(r for r in rows if r["graph"] == "USpowerGrid")
    assert small["etree_benefit"] > 1.2


@pytest.fixture(scope="module")
def planned(bench_size_factor, bench_seed):
    graph = get_entry("USpowerGrid").build(size_factor=bench_size_factor, seed=bench_seed)
    return graph, analyze(graph, seed=bench_seed)


def test_executor_with_etree(benchmark, planned):
    graph, plan = planned
    benchmark.pedantic(
        lambda: parallel_superfw(graph, plan=plan, num_workers=4, etree_parallel=True),
        rounds=3,
        iterations=1,
    )


def test_executor_without_etree(benchmark, planned):
    graph, plan = planned
    benchmark.pedantic(
        lambda: parallel_superfw(graph, plan=plan, num_workers=4, etree_parallel=False),
        rounds=3,
        iterations=1,
    )

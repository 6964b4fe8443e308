"""Table 2 bench: work/depth/concurrency models vs measurements."""

from __future__ import annotations

import pytest

from repro.core.superfw import superfw

from repro.plan import analyze
from repro.experiments.table2 import run_table2
from repro.graphs.generators import grid2d


def test_table2(benchmark, bench_seed):
    from repro.experiments.common import format_table, save_table

    rows = benchmark.pedantic(
        lambda: run_table2(sides=[8, 12, 16, 24, 32], seed=bench_seed),
        rounds=1,
        iterations=1,
    )
    save_table("table2_work_depth", format_table(rows))
    # Bounded measured/model ratios across a 16x range of n — the
    # empirical content of the asymptotic claims.
    w_ratios = [r["W_ratio"] for r in rows]
    assert max(w_ratios) / min(w_ratios) < 8.0


@pytest.fixture(scope="module")
def grid(bench_seed):
    return grid2d(24, 24, seed=bench_seed)


def test_superfw_grid(benchmark, grid, bench_seed):
    plan = analyze(grid, seed=bench_seed)
    benchmark.pedantic(lambda: superfw(grid, plan=plan), rounds=3, iterations=1)


def test_symbolic_analysis_grid(benchmark, grid, bench_seed):
    """The pre-processing half of the pipeline, timed on its own."""
    benchmark.pedantic(lambda: analyze(grid, seed=bench_seed), rounds=2, iterations=1)

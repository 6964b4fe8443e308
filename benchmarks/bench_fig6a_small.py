"""Fig. 6a bench: small-graph APSP, every competitor, normalized table.

Regenerates the paper's Fig. 6a series (speedup over BlockedFW per graph)
and benchmarks each algorithm on the representative *delaunay_n14*
surrogate so pytest-benchmark records comparable per-algorithm timings.
"""

from __future__ import annotations

import pytest

from repro.core.blocked_fw import blocked_floyd_warshall
from repro.core.dijkstra import apsp_dijkstra
from repro.core.superfw import superfw
from repro.plan import analyze
from repro.experiments.fig6 import run_fig6a
from repro.graphs.suite import get_entry


@pytest.fixture(scope="module")
def graph(bench_size_factor, bench_seed):
    return get_entry("delaunay_n14").build(
        size_factor=bench_size_factor * 0.6, seed=bench_seed
    )


def test_fig6a_table(benchmark, bench_size_factor, bench_seed):
    """Regenerate the full Fig. 6a series (one timed pass, all graphs)."""
    from repro.experiments.common import format_table, save_table

    rows = benchmark.pedantic(
        lambda: run_fig6a(size_factor=bench_size_factor * 0.6, seed=bench_seed),
        rounds=1,
        iterations=1,
    )
    save_table("fig6a_small_graphs", format_table(rows))
    mesh_rows = [
        r for r in rows if r["graph"] in ("delaunay_n14", "USpowerGrid", "fe_sphere")
    ]
    assert all(r["superfw_x"] > 1.0 for r in mesh_rows)


def test_blockedfw_small(benchmark, graph):
    benchmark.pedantic(
        lambda: blocked_floyd_warshall(graph), rounds=2, iterations=1
    )


def test_superfw_small(benchmark, graph, bench_seed):
    plan = analyze(graph, seed=bench_seed)
    benchmark.pedantic(lambda: superfw(graph, plan=plan), rounds=3, iterations=1)


def test_superbfs_small(benchmark, graph):
    plan = analyze(graph, ordering="bfs")
    benchmark.pedantic(lambda: superfw(graph, plan=plan), rounds=3, iterations=1)


def test_dijkstra_small(benchmark, graph):
    benchmark.pedantic(lambda: apsp_dijkstra(graph), rounds=2, iterations=1)

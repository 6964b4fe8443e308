"""Fig. 6b bench: large-graph APSP vs the Dijkstra family.

Regenerates the Fig. 6b series (speedup over CSR Dijkstra) and benchmarks
SuperFW / Dijkstra / BoostDijkstra / Δ-stepping on the road-network
surrogate *luxembourg_osm*, the paper's flagship large planar instance.
"""

from __future__ import annotations

import pytest

from repro.core.delta_stepping import apsp_delta_stepping
from repro.core.dijkstra import apsp_dijkstra, apsp_dijkstra_adjlist
from repro.core.superfw import superfw
from repro.plan import analyze
from repro.experiments.fig6 import run_fig6b
from repro.graphs.suite import get_entry


@pytest.fixture(scope="module")
def graph(bench_size_factor, bench_seed):
    return get_entry("luxembourg_osm").build(
        size_factor=bench_size_factor * 0.4, seed=bench_seed
    )


def test_fig6b_table(benchmark, bench_size_factor, bench_seed):
    """Regenerate the full Fig. 6b series over the large-graph suite."""
    from repro.experiments.common import format_table, save_table

    rows = benchmark.pedantic(
        lambda: run_fig6b(
            size_factor=bench_size_factor * 0.35,
            seed=bench_seed,
            include_delta=False,  # Δ-stepping timed separately below (slow)
        ),
        rounds=1,
        iterations=1,
    )
    save_table("fig6b_large_graphs", format_table(rows))
    lux = next(r for r in rows if r["graph"] == "luxembourg_osm")
    # The planar road network is where SuperFW competes with Dijkstra.
    assert lux["superfw_x"] > 0.2


def test_superfw_large(benchmark, graph, bench_seed):
    plan = analyze(graph, seed=bench_seed)
    benchmark.pedantic(lambda: superfw(graph, plan=plan), rounds=3, iterations=1)


def test_dijkstra_large(benchmark, graph):
    benchmark.pedantic(lambda: apsp_dijkstra(graph), rounds=2, iterations=1)


def test_boost_dijkstra_large(benchmark, graph):
    benchmark.pedantic(lambda: apsp_dijkstra_adjlist(graph), rounds=2, iterations=1)


def test_delta_stepping_large(benchmark, graph):
    benchmark.pedantic(
        lambda: apsp_delta_stepping(graph, delta=0.05), rounds=1, iterations=1
    )

"""Fig. 7 bench: strong-scaling curves (simulated PRAM).

Prints the four speedup series the paper plots and benchmarks the
simulator itself plus the real threaded SuperFW executor (whose wall-clock
on this 1-core host demonstrates schedule overhead, not speedup — see
DESIGN.md).
"""

from __future__ import annotations

import pytest

from repro.core.parallel_superfw import parallel_superfw
from repro.plan import analyze
from repro.experiments.fig7 import run_fig7
from repro.graphs.suite import get_entry
from repro.parallel.scheduler import simulate_levels
from repro.parallel.tasks import superfw_levels


def test_fig7_curves(benchmark, bench_size_factor, bench_seed):
    """Regenerate all four graphs' speedup series (Fig. 7)."""
    from repro.experiments.common import format_table, save_table

    curves = benchmark.pedantic(
        lambda: run_fig7(size_factor=bench_size_factor, seed=bench_seed),
        rounds=1,
        iterations=1,
    )
    rows = [
        {"graph": g, "algorithm": algo, **{f"p={p}": s for p, s in curve.items()}}
        for g, algos in curves.items()
        for algo, curve in algos.items()
    ]
    save_table("fig7_strong_scaling", format_table(rows))
    for name, algos in curves.items():
        # Dijkstra-family embarrassingly parallel; Δ-stepping poor (§5.2.3).
        assert algos["dijkstra"][32] > algos["delta-stepping"][32], name
        assert algos["superfw"][32] > algos["superfw"][2] * 0.999, name


@pytest.fixture(scope="module")
def levels(bench_size_factor, bench_seed):
    graph = get_entry("finan512").build(size_factor=bench_size_factor, seed=bench_seed)
    plan = analyze(graph, seed=bench_seed)
    return superfw_levels(plan.structure)


@pytest.mark.parametrize("procs", [1, 8, 64])
def test_simulator_speed(benchmark, levels, procs):
    """The simulator itself must be cheap (pure scheduling arithmetic)."""
    benchmark(lambda: simulate_levels(levels, procs))


def test_threaded_executor(benchmark, bench_size_factor, bench_seed):
    graph = get_entry("email-Enron").build(
        size_factor=bench_size_factor * 0.5, seed=bench_seed
    )
    plan = analyze(graph, seed=bench_seed)
    benchmark.pedantic(
        lambda: parallel_superfw(graph, plan=plan, num_workers=4),
        rounds=2,
        iterations=1,
    )

"""Benches for the extension features built beyond the paper's headline:

* path doubling — Table 2's best-depth row, now runnable;
* directed SuperFW — the LU-analogue sweep on ``A + Aᵀ`` structure;
* incremental APSP — single-edge ``APSPSession.update_edge`` folds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.path_doubling import path_doubling
from repro.core.superfw import superfw
from repro.plan import APSPSession, analyze
from repro.experiments.common import format_table, save_table
from repro.graphs.generators import grid2d
from repro.graphs.suite import get_entry


@pytest.fixture(scope="module")
def grid(bench_seed):
    return grid2d(20, 20, seed=bench_seed)


def test_path_doubling_vs_superfw_ops(benchmark, grid, bench_seed):
    """Table 2 in action: path doubling pays ~log n extra work for depth."""

    def run():
        pd = path_doubling(grid)
        fw = superfw(grid, seed=bench_seed)
        return {
            "pd_rounds": pd.meta["rounds"],
            "pd_ops": float(pd.ops.total),
            "superfw_ops": float(fw.ops.total),
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(
        "extension_path_doubling",
        format_table([row]) + "\n(path doubling trades ops for O(log n) depth)",
    )
    assert row["pd_ops"] > row["superfw_ops"]


def test_path_doubling_speed(benchmark, grid):
    benchmark.pedantic(lambda: path_doubling(grid), rounds=2, iterations=1)


@pytest.fixture(scope="module")
def digraph(bench_size_factor, bench_seed):
    from repro.graphs.digraph import orient_randomly

    base = get_entry("delaunay_n14").build(
        size_factor=bench_size_factor * 0.6, seed=bench_seed
    )
    return orient_randomly(base, oneway_fraction=0.2, seed=bench_seed)


def test_directed_superfw(benchmark, digraph, bench_seed):
    plan = analyze(digraph, seed=bench_seed)
    benchmark.pedantic(lambda: superfw(digraph, plan=plan), rounds=2, iterations=1)


def test_incremental_update(benchmark, bench_size_factor, bench_seed):
    graph = get_entry("rgg2d_14").build(size_factor=bench_size_factor, seed=bench_seed)
    session = APSPSession(graph, seed=bench_seed)
    session.solve()
    edges = graph.edge_array()
    rng = np.random.default_rng(bench_seed)
    state = {"scale": 1.0}

    def one_update():
        state["scale"] *= 0.95  # strictly decreasing => always the fast path
        e = edges[rng.integers(0, edges.shape[0])]
        session.update_edge(int(e[0]), int(e[1]), float(e[2]) * state["scale"])

    benchmark.pedantic(one_update, rounds=10, iterations=1)
    # Every update folded in O(n^2); none re-solved.
    assert session.fast_updates == 10 and session.recomputes == 0

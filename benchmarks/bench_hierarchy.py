"""Hierarchy-of-methods bench (paper §7's open question, quantified)."""

from __future__ import annotations

import pytest

from repro.experiments.common import format_table, save_table
from repro.experiments.hierarchy import run_hierarchy
from repro.graphs.suite import get_entry
from repro.plan import APSPSession
from repro.serve import HubLabelIndex


def test_hierarchy_table(benchmark, bench_size_factor, bench_seed):
    out = benchmark.pedantic(
        lambda: run_hierarchy(
            graph_name="delaunay_n14",
            size_factor=bench_size_factor,
            seed=bench_seed,
        ),
        rounds=1,
        iterations=1,
    )
    save_table(
        "hierarchy",
        format_table(out["rows"])
        + f"\n\nbreak-even treewidth-vs-superfw: "
        f"{out['breakeven_queries_treewidth_vs_superfw']:.4g} queries "
        f"of {out['n'] ** 2} pairs",
    )
    by = {r["method"]: r for r in out["rows"]}
    # The hierarchy ordering the paper anticipates:
    assert by["superfw"]["full_matrix_s"] < by["blocked-fw"]["full_matrix_s"]
    # Query-oriented end: a label join beats a Dijkstra row per query.
    assert out["query_us"] < by["dijkstra"]["per_query_us"]
    # Break-even sits inside [0, n^2): a handful of queries favors the
    # treewidth route, materializing everything favors SuperFW.
    assert 0 <= out["breakeven_queries_treewidth_vs_superfw"] < out["n"] ** 2


def test_treewidth_build(benchmark, bench_size_factor, bench_seed):
    graph = get_entry("delaunay_n14").build(size_factor=bench_size_factor, seed=bench_seed)
    session = APSPSession(graph, seed=bench_seed)
    benchmark.pedantic(lambda: HubLabelIndex.build(session), rounds=2, iterations=1)


def test_treewidth_query(benchmark, bench_size_factor, bench_seed):
    graph = get_entry("delaunay_n14").build(size_factor=bench_size_factor, seed=bench_seed)
    index = HubLabelIndex.build(APSPSession(graph, seed=bench_seed))
    state = {"k": 0}

    def one_query():
        state["k"] = (state["k"] * 7919 + 13) % (graph.n * graph.n)
        return index.query_one(state["k"] // graph.n, state["k"] % graph.n)

    benchmark(one_query)

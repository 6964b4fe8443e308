"""Ablation bench: cost-law supernode amalgamation against none.

``analyze`` collapses whole etree subtrees into one block wherever the
sweep's cost law — ops at the router's GEMM rate plus a fixed cost per
block (:func:`repro.plan.router.sweep_seconds`) — prices the merged
block below its parts (:func:`repro.symbolic.supernodes.amalgamate`).
This bench compares that plan with the merge-free plan of the same
ordering (fundamental supernodes) on five suite graphs: blocks, exact
sweep ops (the work the merge adds), warm solve time (the dispatch it
saves), hub-label entries (unchanged: labels follow the column etree,
not the blocks) and the factor-built index's build time.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.superfw import superfw
from repro.experiments.common import format_table, save_table
from repro.graphs.suite import get_entry
from repro.plan import APSPSession, analyze
from repro.serve import HubLabelIndex
from repro.symbolic.fill import symbolic_cholesky
from repro.symbolic.structure import supernodal_analysis

#: A mesh, a power grid, a social graph, a road network and a sparse
#: finite-element graph.
GRAPHS = ["delaunay_n14", "USpowerGrid", "email-Enron", "luxembourg_osm", "wing"]

#: Best-of repeats of each timed quantity.
REPEATS = 3


def merge_free(plan):
    """``plan`` with its fundamental supernodes instead of merged blocks."""
    sym = symbolic_cholesky(plan.pattern, plan.ordering.perm)
    structure, rows = supernodal_analysis(sym)
    return dataclasses.replace(plan, structure=structure, snode_rows=rows)


def _row(graph, name, setting, plan) -> dict:
    solves = [superfw(graph, plan=plan) for _ in range(REPEATS)]
    builds = [
        HubLabelIndex.build(APSPSession(graph, plan=plan))
        for _ in range(REPEATS)
    ]
    return {
        "graph": name,
        "amalgamation": setting,
        "blocks": plan.structure.ns,
        "max_block": plan.structure.stats()["max_block"],
        "ops": float(solves[0].ops.total),
        "solve_ms": min(r.solve_seconds() for r in solves) * 1e3,
        "label_entries": builds[0].entries,
        "factor_build_ms": min(b.build_seconds for b in builds) * 1e3,
    }


def test_relaxation_table(benchmark, bench_size_factor, bench_seed):
    def run():
        rows = []
        for name in GRAPHS:
            graph = get_entry(name).build(
                size_factor=bench_size_factor, seed=bench_seed
            )
            plan = analyze(graph, seed=bench_seed)
            rows.append(_row(graph, name, "none", merge_free(plan)))
            rows.append(_row(graph, name, "cost law", plan))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("ablation_relaxation", format_table(rows))
    for none, law in zip(rows[::2], rows[1::2]):
        # The law only merges: fewer blocks, never fewer ops...
        assert law["blocks"] <= none["blocks"]
        assert law["ops"] >= none["ops"]
        # ...and never touches a hub label.
        assert law["label_entries"] == none["label_entries"]


@pytest.mark.parametrize("setting", ["none", "cost law"])
def test_superfw_per_relaxation(benchmark, bench_size_factor, setting, bench_seed):
    graph = get_entry("delaunay_n14").build(
        size_factor=bench_size_factor, seed=bench_seed
    )
    plan = analyze(graph, seed=bench_seed)
    if setting == "none":
        plan = merge_free(plan)
    benchmark.pedantic(lambda: superfw(graph, plan=plan), rounds=2, iterations=1)

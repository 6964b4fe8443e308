"""Communication-volume model bench (the 'communication-avoiding' angle).

Quantifies, per suite graph, how much less a subtree-to-subcube SuperFW
would communicate than a 2-D dense BlockedFW — the distributed-memory
claim of the paper's §6/related work, evaluated as an analytic model
(see DESIGN.md: no cluster in this sandbox).

The model runs on each plan's fundamental supernodes, the paper's
structure.  ``analyze`` amalgamates them by one process's per-block
dispatch cost, which a distributed run does not pay the same way; on
those blocks delaunay_n14's p = 64 reduction reads 1.9x.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import format_table, save_table
from repro.graphs.suite import get_entry
from repro.parallel.communication import (
    blockedfw_comm_volume,
    communication_table,
    superfw_comm_volume,
)
from repro.plan import analyze
from repro.symbolic.fill import symbolic_cholesky
from repro.symbolic.structure import build_structure


def paper_structure(graph, seed):
    """The fundamental supernodes of ``graph``'s default ordering."""
    plan = analyze(graph, seed=seed)
    return build_structure(symbolic_cholesky(plan.pattern, plan.ordering.perm))

GRAPHS = ["delaunay_n14", "luxembourg_osm", "USpowerGrid", "EB_16384_64"]


def test_communication_table(benchmark, bench_size_factor, bench_seed):
    def run():
        rows = []
        for name in GRAPHS:
            graph = get_entry(name).build(size_factor=bench_size_factor, seed=bench_seed)
            structure = paper_structure(graph, bench_seed)
            for row in communication_table(structure, graph.n, [16, 64, 256]):
                rows.append({"graph": name, "n": graph.n, **row})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("communication_model", format_table(rows))
    by = {(r["graph"], r["p"]): r for r in rows}
    # Separator-friendly graphs must communicate far less than dense FW...
    assert by[("delaunay_n14", 64)]["reduction_x"] > 2.0
    assert by[("luxembourg_osm", 64)]["reduction_x"] > 3.0
    # ...while the expander's advantage collapses toward parity.
    assert (
        by[("EB_16384_64", 64)]["reduction_x"]
        < by[("luxembourg_osm", 64)]["reduction_x"]
    )


def test_distributed_time_model(benchmark, bench_size_factor, bench_seed):
    """α-β model strong scaling: where dense FW saturates, SuperFW keeps going."""
    from repro.parallel.communication import (
        blockedfw_distributed_time,
        superfw_distributed_time,
    )
    from repro.plan.router import DEFAULT_MACHINE

    graph = get_entry("delaunay_n14").build(size_factor=bench_size_factor, seed=bench_seed)
    structure = paper_structure(graph, bench_seed)
    c = 1 / DEFAULT_MACHINE.ops_per_second

    def run():
        rows = []
        for p in (1, 4, 16, 64, 256, 1024):
            tb = blockedfw_distributed_time(graph.n, p, seconds_per_op=c)
            ts = superfw_distributed_time(structure, p, seconds_per_op=c)
            rows.append(
                {"p": p, "blockedfw_s": tb, "superfw_s": ts, "advantage_x": tb / ts}
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("communication_alpha_beta", format_table(rows))
    advantages = [r["advantage_x"] for r in rows]
    # The communication-avoiding payoff grows toward large p.
    assert advantages[-1] > advantages[1]


def test_comm_volume_scaling(benchmark, bench_size_factor, bench_seed):
    """Per-processor volume decreases with p for both algorithms."""
    graph = get_entry("delaunay_n14").build(size_factor=bench_size_factor, seed=bench_seed)
    structure = paper_structure(graph, bench_seed)

    def run():
        return [
            (
                blockedfw_comm_volume(graph.n, p),
                superfw_comm_volume(structure, p),
            )
            for p in (4, 16, 64)
        ]

    vols = benchmark.pedantic(run, rounds=1, iterations=1)
    blocked = [v[0] for v in vols]
    superv = [v[1] for v in vols]
    assert blocked == sorted(blocked, reverse=True)
    # SuperFW volume may rise with p (more levels communicate) but stays
    # below dense at every scale here.
    assert all(s < b for b, s in vols)

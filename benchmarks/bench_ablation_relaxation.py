"""Ablation bench: supernode relaxation (amalgamation) parameters.

DESIGN.md calls out relaxed supernodes as a design choice: merging small
supernodes into parents trades extra logical work (operating on a few
provably-∞ entries) for larger blocks with less per-kernel dispatch
overhead.  This bench sweeps the relaxation knobs and records the op
count (work paid), the wall-clock (overhead saved) and the factor-built
hub-label entries, which relaxation leaves unchanged because it merges
only along etree chains.
"""

from __future__ import annotations

import pytest

from repro.core.superfw import superfw

from repro.plan import APSPSession, analyze
from repro.serve import HubLabelIndex
from repro.experiments.common import format_table, save_table
from repro.graphs.suite import get_entry


@pytest.fixture(scope="module")
def mesh(bench_size_factor, bench_seed):
    return get_entry("delaunay_n14").build(size_factor=bench_size_factor, seed=bench_seed)


SETTINGS = [
    ("none", dict(relax=False)),
    ("small", dict(relax=True, max_snode=24, small_snode=4)),
    ("default", dict(relax=True, max_snode=64, small_snode=8)),
    ("aggressive", dict(relax=True, max_snode=160, small_snode=24)),
]


def test_relaxation_table(benchmark, mesh, bench_seed):
    def run():
        rows = []
        for name, opts in SETTINGS:
            plan = analyze(mesh, seed=bench_seed, **opts)
            result = superfw(mesh, plan=plan)
            rows.append(
                {
                    "relaxation": name,
                    "supernodes": plan.structure.ns,
                    "max_block": plan.structure.stats()["max_snode"],
                    "ops": float(result.ops.total),
                    "solve_ms": result.solve_seconds() * 1e3,
                    "label_entries": HubLabelIndex.build(
                        APSPSession(mesh, plan=plan)
                    ).entries,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("ablation_relaxation", format_table(rows))
    by = {r["relaxation"]: r for r in rows}
    # Relaxation must reduce supernode count (bigger blocks)...
    assert by["default"]["supernodes"] <= by["none"]["supernodes"]
    # ...at a bounded logical-work premium...
    assert by["default"]["ops"] <= 2.0 * by["none"]["ops"]
    # ...and chain-only merges never lengthen a hub label.
    assert all(r["label_entries"] <= by["none"]["label_entries"] for r in rows)


@pytest.mark.parametrize("setting", [s for s, _ in SETTINGS])
def test_superfw_per_relaxation(benchmark, mesh, setting, bench_seed):
    opts = dict(SETTINGS)[setting]
    plan = analyze(mesh, seed=bench_seed, **opts)
    benchmark.pedantic(lambda: superfw(mesh, plan=plan), rounds=2, iterations=1)

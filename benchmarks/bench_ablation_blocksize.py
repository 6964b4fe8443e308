"""Ablation bench: BlockedFW tile size (paper §2.3's blocking choice).

The blocked algorithm's whole point is matching the memory hierarchy; the
tile size is its knob.  In compiled code the sweep shows the classic
U-shape (tiny tiles pay loop overhead, huge tiles lose cache reuse); on
this NumPy substrate per-kernel dispatch dominates instead, so larger
tiles win monotonically up to the dense limit — a substrate contrast
worth recording (EXPERIMENTS.md) because it explains why supernode
*amalgamation* pays here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.blocked_fw import blocked_floyd_warshall
from repro.experiments.common import format_table, save_table
from repro.graphs.generators import delaunay_mesh

BLOCK_SIZES = [8, 16, 32, 64, 128, 512]


@pytest.fixture(scope="module")
def mesh(bench_seed):
    return delaunay_mesh(384, seed=bench_seed)


def test_blocksize_table(benchmark, mesh):
    def run():
        rows = []
        for b in BLOCK_SIZES:
            result = blocked_floyd_warshall(mesh, block_size=b)
            rows.append(
                {"block_size": b, "solve_ms": result.solve_seconds() * 1e3}
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table("ablation_blocksize", format_table(rows))
    times = {r["block_size"]: r["solve_ms"] for r in rows}
    # Tiny tiles must be dominated by per-call overhead.
    assert times[8] > min(times.values())
    # All block sizes compute identical results (covered functionally in
    # tests/); here just confirm the sweep produced sane timings.
    assert all(t > 0 for t in times.values())


@pytest.mark.parametrize("block_size", [16, 64, 256])
def test_blockedfw_at_size(benchmark, mesh, block_size):
    benchmark.pedantic(
        lambda: blocked_floyd_warshall(mesh, block_size=block_size),
        rounds=2,
        iterations=1,
    )

"""SemiringGemm kernel-rate measurement (paper §5.1.2).

The paper reports its C/OpenMP SemiringGemm at 10.2 Gflop/s per core (28%
of peak).  This runner measures the solver's own min-plus kernel
(:func:`~repro.semiring.minplus.minplus_gemm`) across square operand
sizes, giving the per-op constant the simulator and EXPERIMENTS.md use —
the single number that converts the paper's absolute times to this
substrate.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.experiments.common import format_table, print_header
from repro.semiring.minplus import minplus_gemm, minplus_gemm_flops


def run_gemm_rates(
    *,
    sizes: list[int] | None = None,
    repeats: int = 3,
    seed: int = 0,
    verbose: bool = True,
) -> list[dict[str, Any]]:
    """Measure min-plus GEMM throughput per square operand size.

    Returns rows with ops/second; rates should rise with size until the
    rank-1 panels fall out of cache.
    """
    sizes = sizes or [32, 64, 128, 256, 512]
    rng = np.random.default_rng(seed)
    rows: list[dict[str, Any]] = []
    for size in sizes:
        a = rng.uniform(size=(size, size))
        b = rng.uniform(size=(size, size))
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            minplus_gemm(a, b)
            best = min(best, time.perf_counter() - start)
        flops = minplus_gemm_flops(size, size, size)
        rows.append(
            {
                "size": size,
                "seconds": best,
                "gops_per_s": flops / best / 1e9,
            }
        )
    if verbose:
        print_header("SemiringGemm kernel rate (paper §5.1.2: 10.2 Gflop/s/core in C)")
        print(format_table(rows, floatfmt="{:.4g}"))
    return rows

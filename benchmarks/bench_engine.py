"""SemiringGemm engine benchmark: the kernel vs the seed kernel.

Standalone script (not pytest-benchmark) emitting ``BENCH_engine.json``:

* ``gemm`` — the engine kernel, called directly through
  :func:`repro.semiring.engine.minplus_kernel`, against two rank-1 loops:
  ``seed_rank1``, a faithful reimplementation of the pre-engine kernel
  (fresh ``(m, n)`` temporary per contraction step **and** an
  unconditional float64 output — the dtype bug fixed in
  :func:`repro.semiring.minplus.result_dtype`), and ``broadcast_rank1``,
  the same loop with a pooled buffer, whose per-pivot broadcast add
  ``np.add(a[:, t:t+1], b[t], out=tmp)`` is what the kernel's
  copy-then-add replaces.  The headline acceptance number is the kernel
  versus the seed on the separator-panel shapes (small output, long
  contraction — exactly the products the supernodal solve is made of).
* ``diag`` — the DiagUpdate micro-benchmark: hoisted validation /
  fault-site plus a pooled broadcast buffer versus the old
  per-iteration-allocating loop.
* ``backends`` — sequential vs thread-pool vs shared-memory process-pool
  SuperFW on the largest suite graph, asserting all three matrices are
  bit-identical, with each sweep's task count (the sequential sweep runs
  a group of sibling leaves that share ``A(s)`` as one task) and GEMM
  calls.

All candidates for a given comparison are timed **interleaved** (one
round-robin pass per repeat, best-of over rounds): the host's throughput
drifts over tens of seconds, and back-to-back timing of one candidate
then the other folds that drift into the ratio.

Usage::

    python benchmarks/bench_engine.py --quick --check
    python benchmarks/bench_engine.py --out results/BENCH_engine.json

``--check`` exits non-zero when the kernel is more than 1.5x slower than
the seed rank-1 baseline on the reference shape (the CI perf-smoke gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.parallel_superfw import parallel_superfw
from repro.core.superfw import leaf_tasks, superfw
from repro.graphs.generators import delaunay_mesh
from repro.semiring.engine import WorkspacePool, minplus_kernel
from repro.semiring.kernels import floyd_warshall_kernel
from repro.resilience.faults import kernel_site

#: CI reference shape for the --check gate: a separator-panel product
#: (long contraction, small output) where the blocked kernel must win.
REFERENCE_SHAPE = (32, 2048, 32)
#: Ratio above which --check fails (the kernel must not regress vs the seed).
CHECK_MAX_RATIO = 1.5

#: A shape is "separator-like" when the contraction dimension dwarfs the
#: output panel — the regime the acceptance headline is scored on.
def _is_separator(m: int, k: int, n: int) -> bool:
    return k >= 4 * max(m, n)


def seed_rank1(a, b):
    """The pre-engine SemiringGemm, verbatim semantics.

    Fresh broadcast temporary every iteration and a forced-float64
    output regardless of operand precision.
    """
    m, k = a.shape
    n = b.shape[1]
    out = np.full((m, n), np.inf, dtype=np.result_type(a, b, np.float64))
    for t in range(k):
        np.minimum(out, a[:, t : t + 1] + b[t, :], out=out)
    return out


def broadcast_rank1(pool, a, b, out):
    """A pooled rank-1 loop with a broadcast add per pivot.

    The engine's small-product kernel before the copy-then-add one:
    ``np.add`` of an ``(m, 1)`` column and a length-``n`` row into one
    reused ``(m, n)`` buffer.
    """
    tmp = pool.buffer("broadcast", out.shape, out.dtype)
    for t in range(a.shape[1]):
        np.add(a[:, t : t + 1], b[t, :], out=tmp)
        np.minimum(out, tmp, out=out)


def seed_diag(dist):
    """The pre-engine DiagUpdate: fresh broadcast temporary every pivot."""
    b = dist.shape[0]
    for k in range(b):
        np.minimum(dist, dist[:, k : k + 1] + dist[k, :], out=dist)
    kernel_site("diag", dist)
    return dist


def _time_interleaved(thunks: dict, repeats: int) -> dict:
    """Best-of seconds per thunk, measured round-robin per repeat."""
    best = {name: float("inf") for name in thunks}
    for _ in range(repeats):
        for name, fn in thunks.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _operands(m, k, n, dtype, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.1, 2.0, size=(m, k)).astype(dtype)
    b = rng.uniform(0.1, 2.0, size=(k, n)).astype(dtype)
    a[rng.uniform(size=a.shape) < 0.2] = np.inf
    b[rng.uniform(size=b.shape) < 0.2] = np.inf
    return a, b


def bench_gemm(shapes, repeats):
    """Per-shape kernel timings and speedups over the two rank-1 loops."""
    rows = []
    pool = WorkspacePool()
    for (m, k, n), dtype in shapes:
        a, b = _operands(m, k, n, dtype)
        out = np.empty((m, n), dtype=np.dtype(dtype))

        def run(kernel):
            out.fill(np.inf)
            kernel(pool, a, b, out)

        secs = _time_interleaved(
            {
                "seed": lambda: seed_rank1(a, b),
                "broadcast": lambda: run(broadcast_rank1),
                "kernel": lambda: run(minplus_kernel),
            },
            repeats,
        )
        base, kernel = secs["seed"], secs["kernel"]
        row = {
            "shape": [m, k, n],
            "dtype": np.dtype(dtype).name,
            "ops": 2 * m * k * n,
            "separator": _is_separator(m, k, n),
            "seed_rank1_s": round(base, 6),
            "broadcast_rank1_s": round(secs["broadcast"], 6),
            "kernel_s": round(kernel, 6),
            "speedup_vs_seed": round(base / kernel, 3),
            "speedup_vs_broadcast": round(secs["broadcast"] / kernel, 3),
        }
        rows.append(row)
        print(
            f"gemm {m}x{k}x{n}/{np.dtype(dtype).name}: seed {base * 1e3:7.2f} ms"
            f" | broadcast {secs['broadcast'] * 1e3:7.2f} ms"
            f" | kernel {kernel * 1e3:7.2f} ms (x{row['speedup_vs_seed']:.2f})"
        )
    return rows


def bench_diag(size, repeats):
    """DiagUpdate micro-benchmark: hoisted + pooled vs the seed loop.

    The engine kernel runs validation and the fault-injection site once
    per call and reuses one pooled buffer for the broadcast, so its
    per-call Python overhead is O(1) rather than O(b); per-pivot array
    work is identical, so large blocks measure at parity.
    """
    rng = np.random.default_rng(3)
    base = rng.uniform(0.1, 2.0, size=(size, size))
    np.fill_diagonal(base, 0.0)
    work = np.empty_like(base)

    def run_new():
        work[:] = base
        floyd_warshall_kernel(work)

    def run_seed():
        work[:] = base
        seed_diag(work)

    secs = _time_interleaved({"engine": run_new, "seed": run_seed}, repeats)
    new_s, seed_s = secs["engine"], secs["seed"]
    print(
        f"diag {size}x{size}: seed {seed_s * 1e3:.2f} ms -> engine "
        f"{new_s * 1e3:.2f} ms (x{seed_s / new_s:.2f})"
    )
    return {
        "size": size,
        "seed_s": round(seed_s, 6),
        "engine_s": round(new_s, 6),
        "speedup": round(seed_s / new_s, 3),
    }


def bench_backends(n, workers, repeats):
    """Sequential vs thread vs process SuperFW; asserts identical output."""
    graph = delaunay_mesh(n, seed=1)
    results = {}
    seq = superfw(graph)
    results["sequential"] = _time(lambda: superfw(graph), repeats)
    thr = parallel_superfw(graph, num_workers=workers)
    results["thread"] = _time(
        lambda: parallel_superfw(graph, num_workers=workers), repeats
    )
    prc = parallel_superfw(graph, backend="process", num_workers=workers)
    results["process"] = _time(
        lambda: parallel_superfw(graph, backend="process", num_workers=workers),
        repeats,
    )
    identical = bool(
        np.array_equal(seq.dist, thr.dist) and np.array_equal(seq.dist, prc.dist)
    )
    assert identical, "backends disagree — correctness bug"
    # The sequential sweep runs each leaf group as one task; the pools
    # run one task per supernode.
    structure = seq.meta["plan"].structure
    tasks = {
        "sequential": len(leaf_tasks(structure, range(structure.ns))),
        "thread": structure.ns,
        "process": structure.ns,
    }
    calls = {
        name: sum(v["calls"] for v in r.meta["engine"]["strategies"].values())
        for name, r in (("sequential", seq), ("thread", thr), ("process", prc))
    }
    for name, secs in results.items():
        print(f"backend {name:>10}: {secs * 1e3:8.1f} ms, "
              f"{tasks[name]} tasks, {calls[name]} GEMM calls")
    return {
        "graph": f"delaunay_mesh({n})",
        "workers": workers,
        "seconds": {k: round(v, 6) for k, v in results.items()},
        "tasks": tasks,
        "gemm_calls": calls,
        "identical_matrices": identical,
        "cpu_count": os.cpu_count(),
        "note": (
            "on a single-core host the pools demonstrate correctness, "
            "not speedup; process adds fork+shared-memory overhead"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default="BENCH_engine.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail if kernel/seed > {CHECK_MAX_RATIO} on {REFERENCE_SHAPE}",
    )
    args = parser.parse_args(argv)

    repeats = 3 if args.quick else 7
    shapes = [
        (REFERENCE_SHAPE, np.float64),
        ((256, 256, 256), np.float64),
    ]
    if not args.quick:
        shapes += [
            ((32, 32, 18), np.float64),
            ((199, 57, 199), np.float64),
            ((32, 4096, 32), np.float64),
            ((32, 4096, 32), np.float32),
            ((16, 4096, 16), np.float64),
            ((64, 8192, 64), np.float32),
            ((512, 128, 512), np.float64),
            ((512, 512, 512), np.float64),
            ((512, 512, 512), np.float32),
        ]
    gemm = bench_gemm(shapes, repeats)
    diag = bench_diag(128 if args.quick else 256, repeats)
    backends = bench_backends(
        160 if args.quick else 400, workers=4, repeats=1 if args.quick else 2
    )

    best_separator = max(
        (row["speedup_vs_seed"] for row in gemm if row["separator"]),
        default=0.0,
    )
    best_speedup = max(row["speedup_vs_seed"] for row in gemm)
    reference = next(
        row
        for row in gemm
        if tuple(row["shape"]) == REFERENCE_SHAPE and row["dtype"] == "float64"
    )
    ratio = reference["kernel_s"] / reference["seed_rank1_s"]
    payload = {
        "version": "bench-engine/v2",
        "quick": bool(args.quick),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "gemm": gemm,
        "diag": diag,
        "backends": backends,
        "check": {
            "reference_shape": list(REFERENCE_SHAPE),
            "kernel_over_seed": round(ratio, 3),
            "max_ratio": CHECK_MAX_RATIO,
            "best_vs_seed_on_separator_shapes": round(best_separator, 3),
            "best_speedup_vs_seed": round(best_speedup, 3),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"best kernel speedup vs seed on separator shapes: x{best_separator:.2f}")
    print(f"wrote {args.out}")
    if args.check and ratio > CHECK_MAX_RATIO:
        print(
            f"CHECK FAILED: the kernel is x{ratio:.2f} of the seed baseline on "
            f"{REFERENCE_SHAPE} (limit {CHECK_MAX_RATIO})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Observability overhead benchmark: the disabled tracer must be free.

Standalone script (not pytest-benchmark) emitting ``BENCH_obs.json``:

* ``disabled`` — the headline gate.  Instrumentation sites cost one
  attribute check (and a shared no-op span) when no tracer is
  installed; this section measures the per-site cost of the
  ``NULL_TRACER`` path directly, counts how many sites a real solve
  actually hits (by running the same solve traced once and reading
  ``event_count``), and scores the projected overhead fraction
  ``sites * per_site_cost / untraced_solve_time``.
* ``solve`` — untraced vs traced wall time for the same SuperFW solve,
  timed **interleaved** (one round-robin pass per repeat, best-of over
  rounds) to defeat host throughput drift.  Informational: enabled
  tracing is allowed to cost something; disabled tracing is not.

Usage::

    python benchmarks/bench_obs.py --quick --check
    python benchmarks/bench_obs.py --out results/BENCH_obs.json

``--check`` exits non-zero when the disabled-path overhead fraction
exceeds 5% (the CI perf-smoke gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.superfw import superfw
from repro.graphs.generators import grid2d
from repro.obs import NULL_TRACER, Tracer, use_tracer

#: --check fails when disabled-path overhead exceeds this fraction.
CHECK_MAX_DISABLED_OVERHEAD = 0.05


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _null_site_cost(calls=200_000):
    """Seconds per instrumentation site on the disabled path.

    One site is the worst common case: fetch the ambient tracer, open a
    span with an attr, and close it — what every eliminate/gemm callsite
    does when tracing is off.
    """
    from repro.obs import get_tracer

    t0 = time.perf_counter()
    for i in range(calls):
        tracer = get_tracer()
        with tracer.span("site", snode=i):
            pass
    return (time.perf_counter() - t0) / calls


def bench_disabled(graph, repeats):
    assert NULL_TRACER is not None
    per_site = min(_null_site_cost(), _null_site_cost())

    untraced = _best_of(lambda: superfw(graph), repeats)

    tracer = Tracer()
    with use_tracer(tracer):
        superfw(graph)
    sites = tracer.event_count  # every site that fired in one solve

    overhead = sites * per_site / untraced
    return {
        "per_site_ns": per_site * 1e9,
        "sites_per_solve": sites,
        "untraced_solve_s": untraced,
        "overhead_fraction": overhead,
    }


def bench_solve(graph, repeats):
    """Interleaved untraced-vs-traced solve wall time (informational)."""
    best = {"untraced": float("inf"), "traced": float("inf")}
    for _ in range(repeats):
        t0 = time.perf_counter()
        r_plain = superfw(graph)
        best["untraced"] = min(best["untraced"], time.perf_counter() - t0)

        tracer = Tracer()
        t0 = time.perf_counter()
        with use_tracer(tracer):
            r_traced = superfw(graph)
        best["traced"] = min(best["traced"], time.perf_counter() - t0)
    assert np.array_equal(r_plain.dist, r_traced.dist)
    return {
        "untraced_s": best["untraced"],
        "traced_s": best["traced"],
        "traced_ratio": best["traced"] / best["untraced"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default="BENCH_obs.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero if disabled overhead > "
        f"{CHECK_MAX_DISABLED_OVERHEAD:.0%}",
    )
    args = parser.parse_args(argv)

    side = 14 if args.quick else 22
    repeats = 3 if args.quick else 5
    graph = grid2d(side, side, seed=0)

    disabled = bench_disabled(graph, repeats)
    solve = bench_solve(graph, repeats)
    payload = {
        "version": "bench-obs/v1",
        "quick": bool(args.quick),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "graph": f"grid2d:{side}",
        "disabled": disabled,
        "solve": solve,
    }

    print(
        f"disabled path: {disabled['per_site_ns']:.0f} ns/site x "
        f"{disabled['sites_per_solve']} sites = "
        f"{disabled['overhead_fraction']:.3%} of a "
        f"{disabled['untraced_solve_s'] * 1e3:.1f} ms solve"
    )
    print(
        f"enabled path:  traced/untraced = {solve['traced_ratio']:.3f} "
        f"(informational)"
    )
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")

    if args.check and disabled["overhead_fraction"] > CHECK_MAX_DISABLED_OVERHEAD:
        print(
            f"CHECK FAILED: disabled-tracer overhead "
            f"{disabled['overhead_fraction']:.3%} > "
            f"{CHECK_MAX_DISABLED_OVERHEAD:.0%}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

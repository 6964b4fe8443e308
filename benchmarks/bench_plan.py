"""Plan-layer benchmark: cold analyze+solve vs warm plan-reusing solves.

Standalone script (not pytest-benchmark) emitting ``BENCH_plan.json``:

* ``solves`` — per-graph cold vs warm timings for the sequential
  SuperFW sweep and a cached-plan :class:`~repro.plan.session.APSPSession`,
  asserting the warm matrix is bit-identical to the cold one after a
  weight perturbation and that the warm path reports **zero**
  preprocessing seconds (the analyze/solve split contract).
* ``amortization`` — the preprocessing fraction of a cold solve and the
  break-even picture: how much of every repeated solve the plan cache
  amortizes away.

Cold and warm candidates are timed **interleaved** (round-robin per
repeat, best-of over rounds) so host throughput drift doesn't bias the
ratio.

Usage::

    python benchmarks/bench_plan.py --quick --check
    python benchmarks/bench_plan.py --out results/BENCH_plan.json

``--check`` exits non-zero when a warm solve reports any preprocessing
seconds, when warm and cold matrices differ, or when the best-of warm
solve is slower than ``--check-max-ratio`` (default 1.1) times the
best-of cold solve (the CI perf-smoke gate; warm skips ordering +
symbolic analysis entirely, so it must not be meaningfully slower).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.superfw import superfw
from repro.graphs.generators import delaunay_mesh, grid2d
from repro.graphs.graph import Graph
from repro.plan import APSPSession, PlanCache, analyze

#: Warm best-of may not exceed cold best-of by more than this factor.
CHECK_MAX_RATIO = 1.1


def _perturbed(graph: Graph, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = graph.edge_array()
    edges[:, 2] += rng.uniform(0.05, 0.5, edges.shape[0])
    return Graph.from_edges(graph.n, edges)


def _time_interleaved(thunks: dict, repeats: int) -> dict:
    best = {name: float("inf") for name in thunks}
    for _ in range(repeats):
        for name, fn in thunks.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def bench_graph(name: str, graph: Graph, repeats: int) -> dict:
    """Cold-vs-warm comparison on one graph."""
    plan = analyze(graph)
    reweighted = _perturbed(graph, seed=9)
    cold = superfw(reweighted)
    warm = superfw(reweighted, plan=plan)
    identical = bool(np.array_equal(cold.dist, warm.dist))
    assert identical, "warm solve diverged from cold — correctness bug"
    warm_prep = sum(warm.timings.get(k, 0.0) for k in ("ordering", "symbolic"))
    assert warm_prep == 0.0, "warm solve performed preprocessing"

    secs = _time_interleaved(
        {
            "cold": lambda: superfw(_fresh(reweighted)),
            "warm": lambda: superfw(_fresh(reweighted), plan=plan),
        },
        repeats,
    )
    prep = plan.preprocessing_seconds()
    row = {
        "graph": name,
        "n": graph.n,
        "arcs": int(graph.indices.shape[0]),
        "plan_id": plan.plan_id,
        "preprocessing_s": round(prep, 6),
        "cold_s": round(secs["cold"], 6),
        "warm_s": round(secs["warm"], 6),
        "warm_over_cold": round(secs["warm"] / secs["cold"], 3),
        "preprocessing_fraction_of_cold": round(prep / (prep + secs["warm"]), 3),
        "identical_matrices": identical,
        "warm_preprocessing_s": warm_prep,
    }
    print(
        f"{name:>16}: analyze {prep * 1e3:7.1f} ms | cold "
        f"{secs['cold'] * 1e3:7.1f} ms | warm {secs['warm'] * 1e3:7.1f} ms "
        f"(x{row['warm_over_cold']:.2f})"
    )
    return row


def _fresh(graph: Graph) -> Graph:
    """Defeat any object-identity shortcuts: a new graph object per call."""
    return graph.with_weights(graph.weights)


def bench_session(graph: Graph, solves: int, repeats: int) -> dict:
    """Amortization across a multi-solve session with a disk-less cache."""
    cache = PlanCache()
    t0 = time.perf_counter()
    sess = APSPSession(graph, cache=cache)
    first = sess.solve()
    first_s = time.perf_counter() - t0
    per_solve = []
    rng = np.random.default_rng(17)
    for _ in range(solves - 1):
        edges = graph.edge_array()
        edges[:, 2] = rng.uniform(0.5, 2.0, edges.shape[0])
        weights = Graph.from_edges(graph.n, edges).weights
        t0 = time.perf_counter()
        result = sess.solve(weights)
        per_solve.append(time.perf_counter() - t0)
        assert result.meta["plan_reused"]
    amortized = (first_s + sum(per_solve)) / solves
    out = {
        "solves": solves,
        "first_solve_s": round(first_s, 6),
        "mean_warm_solve_s": round(float(np.mean(per_solve)), 6),
        "amortized_solve_s": round(amortized, 6),
        "plan_id": first.meta["session"]["plan_id"],
        "cache": cache.stats(),
    }
    print(
        f"session x{solves}: first {first_s * 1e3:.1f} ms, warm mean "
        f"{np.mean(per_solve) * 1e3:.1f} ms, amortized {amortized * 1e3:.1f} ms"
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default="BENCH_plan.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on preprocessing in warm solves, divergent matrices, "
        "or warm/cold above --check-max-ratio",
    )
    parser.add_argument(
        "--check-max-ratio", type=float, default=CHECK_MAX_RATIO
    )
    args = parser.parse_args(argv)

    repeats = 3 if args.quick else 5
    graphs = [
        ("grid2d(14)", grid2d(14, 14, seed=0)),
        ("delaunay_mesh(200)", delaunay_mesh(200, seed=1)),
    ]
    if not args.quick:
        graphs += [
            ("grid2d(24)", grid2d(24, 24, seed=0)),
            ("delaunay_mesh(500)", delaunay_mesh(500, seed=1)),
        ]
    rows = [bench_graph(name, g, repeats) for name, g in graphs]
    session = bench_session(
        graphs[-1][1], solves=4 if args.quick else 8, repeats=repeats
    )

    worst_ratio = max(row["warm_over_cold"] for row in rows)
    payload = {
        "version": "bench-plan/v1",
        "quick": bool(args.quick),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "solves": rows,
        "amortization": session,
        "check": {
            "worst_warm_over_cold": worst_ratio,
            "max_ratio": args.check_max_ratio,
            "all_identical": all(r["identical_matrices"] for r in rows),
            "warm_preprocessing_s": max(
                r["warm_preprocessing_s"] for r in rows
            ),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"worst warm/cold ratio: x{worst_ratio:.2f}")
    print(f"wrote {args.out}")
    if args.check and worst_ratio > args.check_max_ratio:
        print(
            f"CHECK FAILED: warm solve is x{worst_ratio:.2f} of cold "
            f"(limit {args.check_max_ratio}) — plan reuse is not free",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

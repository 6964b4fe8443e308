"""Ordering/reduction ablation: |S|, fill, and cold end-to-end deltas.

Standalone script (not pytest-benchmark) emitting ``BENCH_ordering.json``:
every suite graph is analyzed + solved cold under each config —

* ``none``       — the current default: nested dissection, no reduction;
* ``reduce+nd``  — exact reductions (:mod:`repro.ordering.reduce`)
  before nested dissection;
* ``reduce+amd`` — reductions before the sequential AMD ordering;
* ``auto``       — reductions plus the symbolic-cost autoselector
  (``ordering="auto"``), which scores ND against AMD per plan.

Recorded per (graph, config): analyze/solve/total seconds (best of
``--repeats`` cold runs), reduced vertex count, fill-in, max supernode
width, supernode count — plus deltas vs ``none``.  Gates under
``--check``:

* **never slower** — ``auto`` cold analyze+solve ≤ ``none`` ×
  ``--check-max-slowdown`` on *every* graph.  Default 1.25 at full
  size and 1.5 under ``--quick``: scoring a second candidate costs one
  AMD run plus one extra symbolic pass, a fixed ~25% of nested
  dissection's analyze time that only amortizes once the O(n²|S|)
  solve (or a warm plan) dominates — which at surrogate bench sizes it
  does not on the graphs the reducer cannot shrink;
* **structure wins** — ``auto`` shrinks max |S| or fill-in vs ``none``
  on at least half the suite graphs;
* **exactness** — every config matches the unreduced baseline: equal
  reachability masks and ``np.allclose`` distances (suite weights are
  floats, so different elimination orders shift path sums by ulps; the
  bit-identity guarantee for integer weights lives in
  ``tests/test_reduce.py``).

Usage::

    python benchmarks/bench_ablation_ordering.py --quick --check
    python benchmarks/bench_ablation_ordering.py --out BENCH_ordering.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.superfw import superfw
from repro.graphs.suite import build_suite
from repro.plan.plan import analyze

#: Suite subset the ordering gates run on (road / mesh / power / social /
#: random classes, matching the serving benchmark's spread).
SUITE_NAMES = [
    "USpowerGrid",
    "delaunay_n14",
    "luxembourg_osm",
    "email-Enron",
    "G67",
]

CONFIGS: list[tuple[str, dict]] = [
    ("none", {"reduce": False, "ordering": "nd"}),
    ("reduce+nd", {"reduce": True, "ordering": "nd"}),
    ("reduce+amd", {"reduce": True, "ordering": "amd"}),
    ("auto", {"reduce": True, "ordering": "auto"}),
]

CHECK_MAX_SLOWDOWN = 1.25
CHECK_MAX_SLOWDOWN_QUICK = 1.5


def _run_config(graph, params: dict, repeats: int):
    """Best-of-``repeats`` cold analyze+solve; returns (row, dist)."""
    best = None
    dist = None
    stats = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        plan = analyze(graph, seed=0, **params)
        t1 = time.perf_counter()
        result = superfw(graph, plan=plan, seed=0)
        t2 = time.perf_counter()
        timing = (t1 - t0, t2 - t1, t2 - t0)
        if best is None or timing[2] < best[2]:
            best = timing
            dist = result.dist
            stats = plan.describe()
    row = {
        "analyze_s": round(best[0], 4),
        "solve_s": round(best[1], 4),
        "total_s": round(best[2], 4),
        "n_reduced": int(plan.n_reduced),
        "fill_in": int(stats["fill_in"]),
        "max_block": int(stats["max_block"]),
        "supernodes": int(stats["num_supernodes"]),
        "nnz_factor": int(stats["nnz_factor"]),
    }
    if plan.score_report is not None:
        row["picked"] = plan.score_report["picked"]
    if plan.trail is not None:
        row["eliminated_by_rule"] = plan.trail.kind_counts()
    return row, dist


def _diverged(dist, baseline) -> bool:
    finite = np.isfinite(baseline)
    if not np.array_equal(np.isfinite(dist), finite):
        return True
    return not np.allclose(dist[finite], baseline[finite],
                           rtol=1e-9, atol=1e-9)


def bench_graph(entry, graph, repeats: int) -> dict:
    rows: dict[str, dict] = {}
    baseline_dist = None
    mismatches = 0
    for name, params in CONFIGS:
        row, dist = _run_config(graph, params, repeats)
        if name == "none":
            baseline_dist = dist
        elif _diverged(dist, baseline_dist):
            mismatches += 1
        rows[name] = row
    base = rows["none"]
    for name, row in rows.items():
        if name == "none":
            continue
        row["delta_vs_none"] = {
            "total_s": round(row["total_s"] - base["total_s"], 4),
            "speedup": round(base["total_s"] / row["total_s"], 3)
            if row["total_s"]
            else float("inf"),
            "fill_in": base["fill_in"] - row["fill_in"],
            "max_block": base["max_block"] - row["max_block"],
            "n_removed": graph.n - row["n_reduced"],
        }
    auto = rows["auto"]
    improved = (
        auto["max_block"] < base["max_block"]
        or auto["fill_in"] < base["fill_in"]
    )
    slowdown = auto["total_s"] / base["total_s"] if base["total_s"] else 1.0
    print(
        f"{entry.name:>16}  n={graph.n:>6}  ->  nr={auto['n_reduced']:>6}"
        f"  |S|max {base['max_block']:>4}->{auto['max_block']:>4}"
        f"  fill {base['fill_in']:>8}->{auto['fill_in']:>8}"
        f"  auto/none x{slowdown:.2f}  pick={auto.get('picked', '?')}"
    )
    return {
        "name": entry.name,
        "category": entry.category,
        "n": int(graph.n),
        "edges": int(graph.num_edges),
        "configs": rows,
        "improved": bool(improved),
        "auto_slowdown": round(slowdown, 3),
        "mismatches": mismatches,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller graphs, fewer repeats (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when an acceptance gate fails")
    parser.add_argument("--out", default="BENCH_ordering.json")
    parser.add_argument("--repeats", type=int, default=None,
                        help="cold runs per config (best-of); default 2/3")
    parser.add_argument("--size-factor", type=float, default=None)
    parser.add_argument("--check-max-slowdown", type=float, default=None)
    args = parser.parse_args(argv)

    size_factor = args.size_factor or (0.25 if args.quick else 0.5)
    repeats = args.repeats or (2 if args.quick else 3)
    if args.check_max_slowdown is None:
        args.check_max_slowdown = (
            CHECK_MAX_SLOWDOWN_QUICK if args.quick else CHECK_MAX_SLOWDOWN
        )

    rows = []
    for entry, graph in build_suite(SUITE_NAMES, size_factor=size_factor,
                                    seed=0):
        rows.append(bench_graph(entry, graph, repeats))

    improved = sum(r["improved"] for r in rows)
    worst_slowdown = max(r["auto_slowdown"] for r in rows)
    mismatches = sum(r["mismatches"] for r in rows)
    payload = {
        "version": "bench-ordering/v1",
        "quick": bool(args.quick),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "size_factor": size_factor,
        "repeats": repeats,
        "graphs": rows,
        "check": {
            "improved_graphs": improved,
            "suite_size": len(rows),
            "worst_auto_slowdown": round(worst_slowdown, 3),
            "max_slowdown": args.check_max_slowdown,
            "mismatches": mismatches,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"structure improved on {improved}/{len(rows)} graphs | worst "
          f"auto/none x{worst_slowdown:.2f}")
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        if worst_slowdown > args.check_max_slowdown:
            failures.append(
                f"auto cold analyze+solve x{worst_slowdown:.2f} the "
                f"unreduced default, above x{args.check_max_slowdown:.2f}"
            )
        if improved < (len(rows) + 1) // 2:
            failures.append(
                f"auto shrank max |S| or fill on only {improved}/"
                f"{len(rows)} graphs (need >= half)"
            )
        if mismatches:
            failures.append(
                f"{mismatches} config runs diverged from the unreduced "
                "baseline distances"
            )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

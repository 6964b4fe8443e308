"""Serving-tier benchmark: hub-label build cost, query throughput, exactness.

Standalone script (not pytest-benchmark) emitting ``BENCH_query.json``:

* ``build`` — per suite graph: one cold SuperFW solve vs one cold
  ``DistanceServer`` build (plan analysis under the server's
  ``reduce="auto"`` default — the suite graphs are undirected — plus
  the factor-built labels; no solve).  ``trail_events`` records how
  many eliminated vertices the index labels (0 where ``auto_keeps``
  drops the trail).  The
  gate is build ≤ ``--check-max-build-ratio``
  (default 3x) times the solve.  ``build_peak_bytes`` is the traced
  allocation peak of one more label build on the same plan, beside
  ``dense_bytes``, the ``8n²`` of the matrix that build never
  allocates.
* ``throughput`` — random pairs streamed through
  :meth:`~repro.serve.server.DistanceServer.query_many` in
  ``--batch-size`` batches on a warm index; every suite graph must clear
  ``--check-min-qps`` (default 1e5) point queries per second.
* ``correctness`` — sampled queries compared against the full published
  matrix (``np.isclose`` — label answers are float path sums), plus the
  unreachable-mask compared exactly.
* ``after_commit`` — a mixed reweight batch (decreases + increases) is
  committed through the epoch write path; the server must rebuild and
  again match a from-scratch SuperFW solve on the sampled pairs.

Usage::

    python benchmarks/bench_query.py --quick --check
    python benchmarks/bench_query.py --out results/BENCH_query.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc

import numpy as np

from repro.core.superfw import superfw
from repro.graphs.suite import build_suite
from repro.plan import APSPSession
from repro.serve import DistanceServer, HubLabelIndex

#: Suite subset the serving gates run on (mixed road / mesh / power /
#: social / random classes, like the paper's Table 3 spread).
SUITE_NAMES = [
    "USpowerGrid",
    "delaunay_n14",
    "luxembourg_osm",
    "email-Enron",
    "G67",
]

CHECK_MIN_QPS = 1e5
CHECK_MAX_BUILD_RATIO = 3.0


def _sample_pairs(n: int, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, count), rng.integers(0, n, count)


def _mismatches(server, dist, sources, targets) -> int:
    got = server.query_many(sources, targets)
    want = np.asarray(dist)[sources, targets]
    bad_inf = np.isinf(got) != np.isinf(want)
    finite = np.isfinite(want) & ~bad_inf
    bad_val = np.zeros_like(bad_inf)
    bad_val[finite] = ~np.isclose(got[finite], want[finite])
    return int(np.sum(bad_inf | bad_val))


def bench_graph(entry, graph, *, queries: int, batch_size: int,
                samples: int) -> dict:
    """Build + throughput + correctness for one suite graph."""
    t0 = time.perf_counter()
    cold = superfw(graph, seed=0)
    solve_s = time.perf_counter() - t0

    # Timed cold: session construction (plan analysis) + factor-built
    # labels, all inside the window.
    t0 = time.perf_counter()
    server = DistanceServer(graph)
    index = server.refresh()
    build_s = time.perf_counter() - t0
    build_ratio = build_s / max(solve_s, 1e-12)

    # Untimed: the allocation peak of one more build on the same plan.
    spare = APSPSession(graph, plan=server.session.plan)
    tracemalloc.start()
    try:
        HubLabelIndex.build(spare)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        spare.close()

    sources, targets = _sample_pairs(graph.n, queries, seed=1)
    t0 = time.perf_counter()
    for k in range(0, queries, batch_size):
        server.query_many(sources[k:k + batch_size], targets[k:k + batch_size])
    query_s = time.perf_counter() - t0
    qps = queries / max(query_s, 1e-12)

    s_chk, t_chk = _sample_pairs(graph.n, samples, seed=2)
    mismatches = _mismatches(server, cold.dist, s_chk, t_chk)

    sizes = index.label_sizes()
    row = {
        "graph": entry.name,
        "n": graph.n,
        "edges": graph.num_edges,
        "solve_s": round(solve_s, 6),
        "build_s": round(build_s, 6),
        "build_ratio": round(build_ratio, 3),
        "index_source": index.source,
        "trail_events": index.trail_events,
        "build_peak_bytes": build_peak,
        "dense_bytes": 8 * graph.n * graph.n,
        "queries": queries,
        "batch_size": batch_size,
        "query_s": round(query_s, 6),
        "qps": round(qps, 1),
        "sampled": samples,
        "mismatches": mismatches,
        "label_entries": index.entries,
        "mean_width": round(float(sizes.mean()), 2),
        "max_width": int(sizes.max()),
        "shards": index.ncomp,
        "index_bytes": index.memory_bytes(),
    }
    print(
        f"{entry.name:>15}: n={graph.n:5d} | solve {solve_s * 1e3:7.1f} ms | "
        f"build {build_s * 1e3:7.1f} ms (x{build_ratio:.2f}, "
        f"peak {build_peak / 2**20:.1f} MiB) | "
        f"{qps:>11,.0f} q/s | width {sizes.mean():.1f}/{int(sizes.max())} | "
        f"{mismatches} mismatches"
    )
    server.close()
    return row


def bench_after_commit(entry, graph, *, samples: int) -> dict:
    """Commit a mixed reweight batch; the rebuilt index must stay exact."""
    session = APSPSession(graph, seed=0)
    server = DistanceServer(session)
    s_chk, t_chk = _sample_pairs(graph.n, samples, seed=3)
    before = _mismatches(server, session.dist, s_chk, t_chk)

    rng = np.random.default_rng(7)
    edges = session.graph.edge_array()
    picks = rng.choice(edges.shape[0], size=min(24, edges.shape[0]),
                       replace=False)
    updates = []
    for row_i, e in enumerate(edges[picks]):
        u, v, w = int(e[0]), int(e[1]), float(e[2])
        scale = 0.5 if row_i % 2 == 0 else 2.0  # decreases AND increases
        updates.append((u, v, w * scale))
    session.apply_updates(updates)
    info = session.commit()

    scratch = superfw(session.graph, seed=0)
    after = _mismatches(server, scratch.dist, s_chk, t_chk)
    row = {
        "graph": entry.name,
        "n": graph.n,
        "updates": len(updates),
        "decision": info.decision,
        "rebuilds": server.rebuilds,
        "sampled": samples,
        "mismatches_before": before,
        "mismatches_after": after,
    }
    print(
        f"after-commit {entry.name}: {len(updates)} updates -> "
        f"{info.decision} | rebuilds={server.rebuilds} | "
        f"mismatches {before}/{after} (before/after)"
    )
    server.close()
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default="BENCH_query.json")
    parser.add_argument("--batch-size", type=int, default=8192)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail below --check-min-qps, above --check-max-build-ratio, "
        "or on any sampled mismatch (including after a commit)",
    )
    parser.add_argument("--check-min-qps", type=float, default=CHECK_MIN_QPS)
    parser.add_argument(
        "--check-max-build-ratio", type=float, default=CHECK_MAX_BUILD_RATIO
    )
    args = parser.parse_args(argv)

    if args.quick:
        size_factor, queries, samples = 0.25, 60_000, 4_000
    else:
        size_factor, queries, samples = 0.5, 200_000, 20_000

    rows = []
    commit_rows = []
    for entry, graph in build_suite(SUITE_NAMES, size_factor=size_factor,
                                    seed=0):
        rows.append(
            bench_graph(entry, graph, queries=queries,
                        batch_size=args.batch_size, samples=samples)
        )
    # The epoch-composition check runs on the two cheapest classes.
    for entry, graph in build_suite(SUITE_NAMES[:2],
                                    size_factor=size_factor / 2, seed=0):
        commit_rows.append(bench_after_commit(entry, graph, samples=samples))

    min_qps = min(r["qps"] for r in rows)
    max_ratio = max(r["build_ratio"] for r in rows)
    mismatches = sum(r["mismatches"] for r in rows)
    commit_mismatches = sum(
        r["mismatches_before"] + r["mismatches_after"] for r in commit_rows
    )
    payload = {
        "version": "bench-query/v1",
        "quick": bool(args.quick),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "size_factor": size_factor,
        "graphs": rows,
        "after_commit": commit_rows,
        "check": {
            "min_qps": round(min_qps, 1),
            "required_min_qps": args.check_min_qps,
            "max_build_ratio": round(max_ratio, 3),
            "required_max_build_ratio": args.check_max_build_ratio,
            "mismatches": mismatches,
            "commit_mismatches": commit_mismatches,
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"slowest graph: {min_qps:,.0f} q/s | worst build ratio: "
          f"x{max_ratio:.2f}")
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        if min_qps < args.check_min_qps:
            failures.append(
                f"throughput {min_qps:,.0f} q/s below "
                f"{args.check_min_qps:,.0f}"
            )
        if max_ratio > args.check_max_build_ratio:
            failures.append(
                f"index build x{max_ratio:.2f} exceeds "
                f"x{args.check_max_build_ratio:.1f} of one solve"
            )
        if mismatches:
            failures.append(f"{mismatches} sampled queries diverged")
        if commit_mismatches:
            failures.append(
                f"{commit_mismatches} sampled queries diverged around a "
                "commit"
            )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

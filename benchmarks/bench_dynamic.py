"""Dynamic write-path benchmark: batched epoch commits vs per-edge updates.

Standalone script (not pytest-benchmark) emitting ``BENCH_dynamic.json``:

* ``throughput`` — a mixed reweight stream (decreases + increases)
  replayed two ways on the same graph: batched through
  :meth:`~repro.plan.session.APSPSession.commit` (one router decision
  per tick) and one edge at a time through ``update_edge`` (every
  increase pays a full warm re-solve).  Each path replays the stream
  ``CHECK_SAMPLES`` times, interleaved with the other, and the ratio of
  the two median times must clear ``--check-min-speedup`` (default 10x).
* ``exactness`` — every published epoch is compared bit-for-bit against
  a from-scratch SuperFW solve at that epoch's weights (weights are
  dyadic multiples of ``WEIGHT_QUANTUM``, so fold and re-solve agree to
  the last bit).
* ``fold`` — update_mix-style ticks on a power grid with a
  :class:`~repro.serve.server.DistanceServer` beside the session: each
  window raises a set of edges (a warm re-solve) and lowers them back a
  few at a time (rank-k folds), and every commit is followed by the
  index refresh it triggers.  Commit and refresh milliseconds are timed
  in turn, per decision, with the fold's ``rows`` and ``pairs`` (the
  share of the ``n²`` entries it re-evaluated); every window ends at
  the starting weights, where the epoch must equal the first one bit
  for bit and the index must answer every pair from it.
* ``router`` — decision sanity: a single-edge decrease folds, an
  every-edge batch re-solves.
* ``chaos`` — a commit whose warm re-solve runs on the unsupervised
  process backend while every worker is killed: the commit degrades
  with :class:`~repro.resilience.errors.StaleEpochWarning`, the
  previous epoch stays published and readable, and a later solve heals
  the session.

Usage::

    python benchmarks/bench_dynamic.py --quick --check
    python benchmarks/bench_dynamic.py --out results/BENCH_dynamic.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

import numpy as np

from repro.core.incremental import WEIGHT_QUANTUM, quantize_weights, reweight_stream
from repro.core.superfw import superfw
from repro.graphs.generators import grid2d, power_grid_like
from repro.plan import APSPSession
from repro.serve import DistanceServer
from repro.resilience.errors import StaleEpochWarning
from repro.resilience.faults import FaultSpec, inject_faults

#: Batched commit throughput must beat the per-edge loop by this factor.
CHECK_MIN_SPEEDUP = 10.0
#: Interleaved replays per path; the speedup gate reads their medians.
CHECK_SAMPLES = 5


def _replay_batched(graph, stream) -> tuple[float, APSPSession, list, dict]:
    """One timed replay of ``stream`` through batched commits."""
    session = APSPSession(graph, seed=0)
    session.solve()
    epochs: list[tuple[str, np.ndarray, np.ndarray]] = []
    decisions: dict[str, int] = {}
    t0 = time.perf_counter()
    for tick in stream:
        session.apply_updates(tick)
        info = session.commit()
        decisions[info.decision] = decisions.get(info.decision, 0) + 1
        epochs.append(
            (info.decision, session.graph.weights.copy(), np.asarray(session.dist))
        )
    return time.perf_counter() - t0, session, epochs, decisions


def _replay_per_edge(graph, stream) -> tuple[float, APSPSession]:
    """One timed replay of ``stream`` through ``update_edge``, edge by edge."""
    session = APSPSession(graph, seed=0)
    session.solve()
    t0 = time.perf_counter()
    for tick in stream:
        for u, v, w in tick:
            session.update_edge(u, v, w)
    return time.perf_counter() - t0, session


def bench_throughput(n_side: int, ticks: int, per_tick: int) -> tuple[dict, list]:
    """Batched commits vs a per-edge ``update_edge`` loop, same stream.

    Each path replays the stream ``CHECK_SAMPLES`` times from a fresh session,
    the two interleaved, and the speedup is the ratio of their median
    times, so one slow replay cannot fail the gate on its own.
    """
    graph = quantize_weights(grid2d(n_side, n_side, seed=0))
    stream = list(
        reweight_stream(
            graph, ticks=ticks, per_tick=per_tick, p_increase=0.35, seed=7
        )
    )
    n_updates = sum(len(t) for t in stream)

    batched_times, per_edge_times = [], []
    identical_final = True
    epochs = decisions = None
    for _ in range(CHECK_SAMPLES):
        seconds, batched, run_epochs, run_decisions = _replay_batched(graph, stream)
        batched_times.append(seconds)
        if epochs is None:
            epochs, decisions = run_epochs, run_decisions
        seconds, per_edge = _replay_per_edge(graph, stream)
        per_edge_times.append(seconds)
        identical_final &= bool(
            np.array_equal(np.asarray(per_edge.dist), np.asarray(batched.dist))
        )
    batched_s = float(np.median(batched_times))
    per_edge_s = float(np.median(per_edge_times))
    speedup = per_edge_s / max(batched_s, 1e-12)
    row = {
        "graph": f"grid2d({n_side})",
        "n": graph.n,
        "ticks": ticks,
        "per_tick": per_tick,
        "updates": n_updates,
        "decisions": decisions,
        "samples": CHECK_SAMPLES,
        "batched_s": round(batched_s, 6),
        "batched_samples_s": [round(t, 6) for t in batched_times],
        "batched_updates_per_s": round(n_updates / max(batched_s, 1e-12), 1),
        "per_edge_s": round(per_edge_s, 6),
        "per_edge_samples_s": [round(t, 6) for t in per_edge_times],
        "per_edge_updates_per_s": round(n_updates / max(per_edge_s, 1e-12), 1),
        "speedup": round(speedup, 2),
        "per_edge_resolves": per_edge.recomputes,
        "batched_resolves": batched.recomputes,
        "final_identical": identical_final,
    }
    print(
        f"throughput grid2d({n_side}): {n_updates} updates, median of "
        f"{CHECK_SAMPLES} | batched {batched_s * 1e3:7.1f} ms "
        f"({batched.recomputes} re-solves) | per-edge "
        f"{per_edge_s * 1e3:7.1f} ms ({per_edge.recomputes} re-solves) "
        f"| x{speedup:.1f}"
    )
    return row, epochs


def bench_exactness(n_side: int, ticks: int, per_tick: int) -> dict:
    """Replay a stream, solving from scratch at every epoch's weights."""
    graph = quantize_weights(grid2d(n_side, n_side, seed=0))
    session = APSPSession(graph, seed=0)
    session.solve()
    mismatches = 0
    checked = 0
    for tick in reweight_stream(
        graph, ticks=ticks, per_tick=per_tick, p_increase=0.35, seed=11
    ):
        session.apply_updates(tick)
        info = session.commit()
        scratch = superfw(session.graph, seed=0)
        checked += 1
        if not np.array_equal(np.asarray(session.dist), scratch.dist):
            mismatches += 1
            print(
                f"  EPOCH {info.epoch_index} ({info.decision}) diverged "
                f"from scratch", file=sys.stderr,
            )
    print(f"exactness: {checked} epochs vs from-scratch, {mismatches} mismatches")
    return {"epochs_checked": checked, "mismatches": mismatches}


def bench_fold(n: int, windows: int, ticks: int, per_tick: int) -> dict:
    """Commit then index refresh, tick by tick, on a power grid.

    A window raises ``ticks * per_tick`` edges in one commit (increases
    re-solve), then lowers ``per_tick`` of them back per commit (the
    router folds decreases), so each window ends at the start weights.
    """
    graph = quantize_weights(power_grid_like(n, seed=0))
    session = APSPSession(graph, seed=0)
    server = DistanceServer(session)
    start = np.array(session.dist)
    server.refresh()
    edges = graph.edge_array()
    rng = np.random.default_rng(3)
    commit_ms: dict[str, list[float]] = {"fold": [], "resolve": []}
    refresh_ms: dict[str, list[float]] = {"fold": [], "resolve": []}
    rows, pairs = [], []
    mismatches = 0
    src, dst = np.divmod(np.arange(n * n), n)
    for _ in range(windows):
        picks = rng.choice(edges.shape[0], ticks * per_tick, replace=False)
        old = [(int(edges[e, 0]), int(edges[e, 1]), float(edges[e, 2]))
               for e in picks]
        raised = [(u, v, w + int(rng.integers(1, 17)) * WEIGHT_QUANTUM * 64)
                  for u, v, w in old]
        window = [raised] + [
            old[t * per_tick:(t + 1) * per_tick] for t in range(ticks)
        ]
        for updates in window:
            session.apply_updates(updates)
            t0 = time.perf_counter()
            info = session.commit()
            t1 = time.perf_counter()
            server.refresh()
            t2 = time.perf_counter()
            commit_ms[info.decision].append((t1 - t0) * 1e3)
            refresh_ms[info.decision].append((t2 - t1) * 1e3)
            if info.decision == "fold":
                rows.append(info.router.get("rows", 0))
                pairs.append(info.router.get("pairs", 0))
        mismatches += int(not np.array_equal(np.asarray(session.dist), start))
        mismatches += int(not np.array_equal(
            server.query_many(src, dst), start.ravel()
        ))

    def median(values):
        return round(float(np.median(values)), 4) if values else None

    row = {
        "graph": f"power_grid_like({n})",
        "n": n,
        "windows": windows,
        "decisions": {k: len(v) for k, v in commit_ms.items()},
        "fold_commit_ms": median(commit_ms["fold"]),
        "fold_refresh_ms": median(refresh_ms["fold"]),
        "resolve_commit_ms": median(commit_ms["resolve"]),
        "resolve_refresh_ms": median(refresh_ms["resolve"]),
        "fold_rows_mean": round(float(np.mean(rows)), 1) if rows else None,
        "fold_pairs_mean": round(float(np.mean(pairs)), 1) if pairs else None,
        "fold_pairs_share": (
            round(float(np.mean(pairs)) / (n * n), 4) if pairs else None
        ),
        "mismatches": mismatches,
    }
    print(
        f"fold power_grid_like({n}): {len(commit_ms['fold'])} folds | commit "
        f"{row['fold_commit_ms']} ms + refresh {row['fold_refresh_ms']} ms "
        f"(median) | re-solve commit {row['resolve_commit_ms']} ms + refresh "
        f"{row['resolve_refresh_ms']} ms | pairs {row['fold_pairs_share']} "
        f"of n² | {mismatches} mismatches"
    )
    return row


def bench_router(n_side: int) -> dict:
    """Decision sanity: tiny decrease batches fold, huge batches re-solve."""
    graph = quantize_weights(grid2d(n_side, n_side, seed=0))
    session = APSPSession(graph, seed=0)
    session.solve()
    edges = session.graph.edge_array()

    u, v, w = int(edges[0][0]), int(edges[0][1]), float(edges[0][2])
    session.apply_updates([(u, v, w * 0.5)])
    small = session.commit()

    big = [(int(e[0]), int(e[1]), float(e[2]) * 0.75) for e in edges]
    session.apply_updates(big)
    large = session.commit()

    row = {
        "small_batch": small.router,
        "large_batch": large.router,
        "small_decision": small.decision,
        "large_decision": large.decision,
        "sane": small.decision == "fold" and large.decision == "resolve",
    }
    print(
        f"router: k=1 decrease -> {small.decision} "
        f"(predicted {small.predicted_seconds * 1e3:.2f} ms), "
        f"k={len(big)} -> {large.decision} "
        f"(predicted {large.predicted_seconds * 1e3:.2f} ms)"
    )
    return row


def bench_chaos(n_side: int) -> dict:
    """Kill every worker during a commit's re-solve; the epoch survives."""
    graph = quantize_weights(grid2d(n_side, n_side, seed=0))
    session = APSPSession(
        graph,
        method="parallel-superfw",
        seed=0,
        backend="process",
        num_workers=2,
        supervise=False,
    )
    # First epoch on the thread backend: the warm process pool is built
    # lazily by the first process-backend solve, which happens *inside*
    # the fault context below — so its workers fork with the chaos spec
    # armed (fault state ships through the pool initializer at spawn).
    session.solve(backend="thread")
    before_index = session.epoch.index
    before_digest = session.epoch.weights_digest
    before_dist = session.dist

    edges = session.graph.edge_array()
    u, v, w = int(edges[0][0]), int(edges[0][1]), float(edges[0][2])
    warned = False
    with inject_faults(FaultSpec(seed=3, worker_kill_rate=1.0)):
        session.apply_updates([(u, v, w * 4.0)])  # increase -> must re-solve
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            info = session.commit()
        warned = any(
            isinstance(item.message, StaleEpochWarning) for item in caught
        )

    survived = (
        session.epoch.index == before_index
        and session.epoch.weights_digest == before_digest
        and np.array_equal(np.asarray(session.dist), np.asarray(before_dist))
    )
    stale = bool(session.stale)

    # Out of the blast radius, the next solve heals the session.
    session.solve()
    healed = not session.stale and session.epoch.index == before_index + 1
    exact_after = bool(
        np.array_equal(
            np.asarray(session.dist), superfw(session.graph, seed=0).dist
        )
    )
    session.close()
    row = {
        "degraded": bool(info.degraded),
        "warned": warned,
        "error": info.error,
        "previous_epoch_survived": bool(survived),
        "stale_flagged": stale,
        "healed": bool(healed),
        "healed_exact": exact_after,
        "ok": bool(info.degraded and warned and survived and stale and healed
                   and exact_after),
    }
    print(
        f"chaos: degraded={row['degraded']} warned={warned} "
        f"prior-epoch-survived={survived} stale={stale} healed={healed}"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default="BENCH_dynamic.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail below --check-min-speedup, on any epoch/scratch "
        "mismatch, on router nonsense, or on a chaos regression",
    )
    parser.add_argument(
        "--check-min-speedup", type=float, default=CHECK_MIN_SPEEDUP
    )
    args = parser.parse_args(argv)

    if args.quick:
        side, ticks, per_tick = 16, 4, 40
        exact_side, exact_ticks, exact_per_tick = 12, 4, 10
        fold_n, fold_windows = 256, 3
        router_side, chaos_side = 12, 10
    else:
        side, ticks, per_tick = 24, 6, 60
        exact_side, exact_ticks, exact_per_tick = 16, 6, 16
        fold_n, fold_windows = 512, 12
        router_side, chaos_side = 16, 12

    throughput, _ = bench_throughput(side, ticks, per_tick)
    exactness = bench_exactness(exact_side, exact_ticks, exact_per_tick)
    fold = bench_fold(fold_n, fold_windows, ticks=4, per_tick=2)
    router = bench_router(router_side)
    chaos = bench_chaos(chaos_side)

    payload = {
        "version": "bench-dynamic/v2",
        "quick": bool(args.quick),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "throughput": throughput,
        "exactness": exactness,
        "fold": fold,
        "router": router,
        "chaos": chaos,
        "check": {
            "speedup": throughput["speedup"],
            "min_speedup": args.check_min_speedup,
            "final_identical": throughput["final_identical"],
            "mismatches": exactness["mismatches"],
            "fold_mismatches": fold["mismatches"],
            "router_sane": router["sane"],
            "chaos_ok": chaos["ok"],
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(
        f"batched/per-edge speedup (median of {CHECK_SAMPLES}): "
        f"x{throughput['speedup']:.1f}"
    )
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        if throughput["speedup"] < args.check_min_speedup:
            failures.append(
                f"speedup x{throughput['speedup']:.1f} below "
                f"x{args.check_min_speedup:.1f}"
            )
        if not throughput["final_identical"]:
            failures.append("per-edge and batched final matrices differ")
        if exactness["mismatches"]:
            failures.append(
                f"{exactness['mismatches']} epochs diverged from scratch"
            )
        if fold["mismatches"]:
            failures.append(
                f"{fold['mismatches']} fold windows ended off the start epoch"
            )
        if not router["sane"]:
            failures.append(
                f"router chose {router['small_decision']}/"
                f"{router['large_decision']} for small/large batches"
            )
        if not chaos["ok"]:
            failures.append(f"chaos regression: {chaos}")
        if failures:
            for f in failures:
                print(f"CHECK FAILED: {f}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

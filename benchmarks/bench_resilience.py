"""Resilience overhead benchmark: supervision must be ~free when idle.

Standalone script (not pytest-benchmark) emitting ``BENCH_resilience.json``:

* ``clean`` — the headline gate.  Supervision adds exactly two things to
  a fault-free process solve: a barrier snapshot of every task's write
  footprint at each elimination level (what makes crash recovery
  bit-exact) and the supervisor's per-task future bookkeeping.  Both
  components are measured directly — the snapshots by capturing every
  level of the plan from a real ``n²`` matrix, the bookkeeping by
  driving ``Supervisor.run_group`` over pre-completed futures — and
  scored as a projected fraction of the unsupervised
  solve's wall time, the same stable-gate design as
  ``bench_obs.py``.  (A bare ratio of two ~100 ms process-pool wall
  times cannot resolve a few-percent gate on a busy host; the paired
  wall-time comparison is still reported, as ``wall``, for the
  curious.)
* ``recovery`` — one solve through a deterministic injected worker
  kill: wall time, pool rebuilds (at least one — a run that killed
  nothing would test nothing), and whether the recovered result is
  bit-identical to the clean one (it must be).
* ``checkpoint`` — informational.  One supervised solve snapshotting at
  every level barrier: wall time and bytes written per snapshot.

Usage::

    python benchmarks/bench_resilience.py --quick --check
    python benchmarks/bench_resilience.py --out results/BENCH_resilience.json

``--check`` exits non-zero when the projected clean-solve supervision
overhead exceeds 3% (the CI chaos-smoke gate), or the recovery run
rebuilt no pool or is not bit-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from repro.core.parallel_superfw import (
    SharedPlanPool,
    _BarrierSnapshot,
    parallel_superfw,
)
from repro.graphs.generators import grid2d
from repro.plan.plan import analyze
from repro.resilience.faults import FaultSpec, _draw, inject_faults
from repro.resilience.supervisor import Supervisor, SupervisorPolicy

#: --check fails when projected supervision overhead exceeds this.
CHECK_MAX_SUPERVISION_OVERHEAD = 0.03

#: Per-attempt worker-kill probability of the recovery run.
KILL_RATE = 0.1


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _capture_cost(plan, repeats=20):
    """Seconds of one solve's barrier snapshots: every level's capture."""
    n = plan.n_reduced
    barrier = _BarrierSnapshot(
        np.random.default_rng(0).random((n, n)), plan.structure
    )
    groups = plan.structure.level_order()
    return _best_of(lambda: [barrier.capture(g) for g in groups], repeats)


class _IdlePool:
    """Pool stub for timing the supervisor loop itself (nothing fails)."""

    def stale_workers(self, timeout):
        return []

    def rebuild(self):
        raise AssertionError("clean path must not rebuild")

    terminate = rebuild


def _supervision_site_cost(tasks=64, rounds=30):
    """Seconds of supervisor bookkeeping per completed task.

    Drives ``run_group`` over futures that are already resolved, so the
    measured time is pure coordination: the wait loop, result
    collection, and recovery-state upkeep — everything supervision adds
    per task on a fault-free level.
    """
    supervisor = Supervisor(SupervisorPolicy(), _IdlePool())

    def submit(s, attempt_base=0):
        future = Future()
        future.set_result(s)
        return future

    def on_result(s, value):
        pass

    t0 = time.perf_counter()
    for _ in range(rounds):
        supervisor.run_group(range(tasks), submit=submit, on_result=on_result)
    return (time.perf_counter() - t0) / (rounds * tasks)


def bench_clean(graph, plan, pool, repeats):
    """Projected supervision overhead on a fault-free solve (the gate)."""
    structure = plan.structure
    levels = len(structure.level_order())

    unsup, sup = [], []
    last = {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        last["unsupervised"] = parallel_superfw(
            graph, plan=plan, backend="process", pool=pool, supervise=False
        )
        t1 = time.perf_counter()
        last["supervised"] = parallel_superfw(
            graph, plan=plan, backend="process", pool=pool
        )
        unsup.append(t1 - t0)
        sup.append(time.perf_counter() - t1)
    assert np.array_equal(last["unsupervised"].dist, last["supervised"].dist)

    captures = _capture_cost(plan)
    per_task = _supervision_site_cost()
    baseline = min(unsup)
    projected = (captures + structure.ns * per_task) / baseline
    return {
        "levels": levels,
        "tasks": structure.ns,
        "captures_ms": captures * 1e3,
        "per_task_us": per_task * 1e6,
        "unsupervised_solve_s": baseline,
        "overhead_fraction": projected,
        "wall": {
            "unsupervised_s": float(np.median(unsup)),
            "supervised_s": float(np.median(sup)),
        },
    }


def kill_spec(plan, rate: float = KILL_RATE) -> FaultSpec:
    """The first-seeded worker-kill spec that kills a first attempt.

    Chaos draws hash ``(seed, supernode, attempt)``, so whether a spec
    kills anything follows from the plan alone.  A fixed seed may kill
    nothing once amalgamation leaves few tasks: at rate 0.1, all 25
    first attempts survive with probability 0.9^25 ≈ 7%.
    """
    seed = 0
    while not any(
        _draw(seed, "worker-kill", s, 1) < rate for s in range(plan.structure.ns)
    ):
        seed += 1
    return FaultSpec(seed=seed, worker_kill_rate=rate)


def bench_recovery(graph, plan, clean_dist):
    """One supervised solve through a deterministic worker kill."""
    spec = kill_spec(plan)
    t0 = time.perf_counter()
    with inject_faults(spec):
        # Transient pool: the workers must inherit the fault injector.
        result = parallel_superfw(graph, plan=plan, backend="process")
    elapsed = time.perf_counter() - t0
    recovery = result.meta["recovery"]
    return {
        "wall_s": elapsed,
        "fault_seed": spec.seed,
        "pool_rebuilds": recovery.get("pool_rebuilds", 0),
        "recoveries": len(recovery.get("recoveries", [])),
        "bit_identical": bool(np.array_equal(clean_dist, result.dist)),
    }


def bench_checkpoint(graph, plan, pool, clean_dist):
    """One supervised solve checkpointing at every level barrier."""
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        result = parallel_superfw(
            graph,
            plan=plan,
            backend="process",
            pool=pool,
            checkpoint={"directory": tmp, "keep": True},
        )
        elapsed = time.perf_counter() - t0
        files = list(Path(tmp).glob("superfw-*.npz"))
        bytes_written = sum(f.stat().st_size for f in files)
    assert np.array_equal(clean_dist, result.dist)
    return {
        "wall_s": elapsed,
        "snapshots": len(files),
        "snapshot_bytes": bytes_written,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--out", default="BENCH_resilience.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero if projected supervision overhead > "
        f"{CHECK_MAX_SUPERVISION_OVERHEAD:.0%}",
    )
    args = parser.parse_args(argv)

    side = 24 if args.quick else 32
    repeats = 3 if args.quick else 5
    graph = grid2d(side, side, seed=0)
    plan = analyze(graph)

    with SharedPlanPool(plan, num_workers=2) as pool:
        clean = bench_clean(graph, plan, pool, repeats)
        clean_dist = parallel_superfw(
            graph, plan=plan, backend="process", pool=pool
        ).dist
        checkpoint = bench_checkpoint(graph, plan, pool, clean_dist)
    recovery = bench_recovery(graph, plan, clean_dist)
    payload = {
        "version": "bench-resilience/v1",
        "quick": bool(args.quick),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "graph": f"grid2d:{side}",
        "clean": clean,
        "recovery": recovery,
        "checkpoint": checkpoint,
    }

    print(
        f"clean solve: {clean['captures_ms']:.2f} ms barrier snapshots "
        f"({clean['levels']} levels) + {clean['tasks']} x "
        f"{clean['per_task_us']:.1f} us "
        f"bookkeeping = {clean['overhead_fraction']:.3%} of a "
        f"{clean['unsupervised_solve_s'] * 1e3:.1f} ms solve"
    )
    print(
        f"recovery:    {recovery['wall_s'] * 1e3:.1f} ms with "
        f"{recovery['pool_rebuilds']} rebuild(s), "
        f"bit-identical={recovery['bit_identical']}"
    )
    print(
        f"checkpoint:  {checkpoint['wall_s'] * 1e3:.1f} ms, "
        f"{checkpoint['snapshots']} snapshot(s), "
        f"{checkpoint['snapshot_bytes'] / 1e6:.1f} MB"
    )
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {args.out}")

    failed = False
    if args.check:
        if clean["overhead_fraction"] > CHECK_MAX_SUPERVISION_OVERHEAD:
            print(
                f"CHECK FAILED: projected supervision overhead "
                f"{clean['overhead_fraction']:.3%} > "
                f"{CHECK_MAX_SUPERVISION_OVERHEAD:.0%}",
                file=sys.stderr,
            )
            failed = True
        if recovery["pool_rebuilds"] < 1:
            print(
                "CHECK FAILED: the recovery run killed no worker",
                file=sys.stderr,
            )
            failed = True
        if not recovery["bit_identical"]:
            print(
                "CHECK FAILED: recovered solve is not bit-identical",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

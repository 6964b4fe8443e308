#!/usr/bin/env python3
"""The repository benchmark: one workload per fresh process, one client.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_mesh --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 2

``--trace 0`` measures the end-to-end metrics of one workload with no
spans recorded.  ``--trace 1`` runs the workload again with the
benchmark's own spans around each call into a library layer and reports
the per-layer metrics, plus the tracing overhead against untraced ops
interleaved in the same run.  ``--workload all`` runs every workload in
its own child process.  A run sets up, then sends ops from one client
in a closed loop until ``--seconds`` of op time have passed.

End-to-end metrics:

* ``setup_s`` — median of several set-ups, each from the generated
  inputs to the first op being ready (analyze, first solve, index build);
* ``op_ms.p50`` — median op latency;
* ``op_ms.tail`` — the op latency with exactly ten ops above it (its
  percentile and the op count are printed beside it);
* ``distances_per_s`` — distances delivered per second of op time: n²
  per solve or committed epoch, one per answered query pair;
* ``peak_rss_mb`` — the process's peak resident set;
* ``ok_rate`` — share of ops that returned and passed the exactness
  check (one minus the error rate, which is printed beside it).

The four times are reported at a reference host speed (``HostSpeed``);
the raw wall values are printed beside them.

Every op's output is compared bit for bit with SciPy outside the timed
window.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero when any check failed.  The library is imported from
``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, fixed before NumPy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("cold_mesh", "warm_social", "serve_road", "update_mix")
#: Every run completes at least this many ops, so the tail has 10 beyond it.
MIN_OPS = 21
#: Samples beyond the reported tail value.
TAIL_BEYOND = 10


def load_library() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit if it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import the library from {SRC}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported the library from {repro.__file__}, not {SRC}")


def host_block() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


class HostSpeed:
    """Host speed from a fixed probe, run between ops outside the timed window.

    On shared cloud VMs the speed drifts in phases of seconds to minutes
    (co-tenants on shared cores): on a 2-vCPU x86_64 VM the same op's
    median moved by a third from one run to the next.  The probe, a
    fixed mix of interpreter and NumPy work, slows down in step, so
    every timing is reported at the reference speed where the probe
    takes ``PROBE_REF_S``; normalizing cut the ten-seed spread of the
    median from 17-43% to 2-7% on that VM.  A raw time
    is multiplied by ``PROBE_REF_S`` over the median of the probes run
    within ``HALF_WINDOW_S`` of it.  Raw times are printed beside the
    normalized ones.
    """

    PROBE_REF_S = 1e-3
    #: Minimum wall time between probes.
    EVERY_S = 0.1
    #: Probes this close to an interval's ends estimate its speed.
    HALF_WINDOW_S = 0.5

    def __init__(self) -> None:
        self._array = np.arange(16384.0)
        self.times: list[float] = []
        self.samples: list[float] = []

    def probe(self) -> None:
        t0 = time.perf_counter()
        acc = 0
        for k in range(10000):
            acc += k * k
        a = self._array
        for _ in range(16):
            a = np.minimum(a, a[::-1] + 1.0)
        self.times.append(t0)
        self.samples.append(time.perf_counter() - t0)

    def maybe_probe(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= self.EVERY_S:
            self.probe()

    def scales(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Factor mapping raw to reference time for each ``(start, end)``."""
        times = np.asarray(self.times)
        samples = np.asarray(self.samples)
        out = []
        for start, end in intervals:
            lo = int(np.searchsorted(times, start - self.HALF_WINDOW_S))
            hi = int(np.searchsorted(times, end + self.HALF_WINDOW_S))
            out.append(self.PROBE_REF_S / float(np.median(samples[lo:hi])))
        return out


class Tally:
    """Counts ops attempted and ops whose checks failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def __call__(self, notes: list[str]) -> None:
        self.attempted += 1
        if notes:
            self.failed += 1
            self.notes.extend(notes)


def run_ops(wl, seconds: float, trace: bool, log, tally: Tally) -> dict:
    """Set up, then run a closed loop of ops until ``seconds`` of op time.

    Returns set-up times, untraced op latencies and distances delivered.
    In a traced run, stateless workloads run every input untraced and
    then traced and require identical outputs; stateful workloads trace
    every other op.
    """
    from workloads import compare

    speed = HostSpeed()
    setups: list[tuple[float, float]] = []
    for rep in range(1 if trace else wl.setup_reps):
        gc.collect()
        speed.probe()
        t0 = time.perf_counter()
        wl.setup(rep)
        setups.append((t0, time.perf_counter()))
        speed.probe()
        tally(wl.check_setup())
    # Set-up state is long-lived: keep it out of every later collection.
    gc.collect()
    gc.freeze()

    ops: list[tuple[float, float]] = []
    delivered = 0
    timed = 0.0
    i = 0
    while timed < seconds or i < MIN_OPS:
        inp = wl.prepare(i)
        log.op = i
        traced_only = trace and not wl.stateless and i % 2 == 1
        gc.collect()
        speed.maybe_probe()
        t0 = time.perf_counter()
        try:
            if traced_only:
                out, count = wl.traced_op(inp, log)
            else:
                out, count = wl.op(inp)
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            timed += time.perf_counter() - t0
            tally([f"op {i} raised {type(exc).__name__}: {exc}"])
            i += 1
            continue
        t1 = time.perf_counter()
        timed += t1 - t0
        if not traced_only:
            ops.append((t0, t1))
            delivered += count
        notes = wl.check(inp, out)
        if trace and wl.stateless:
            gc.collect()
            t0 = time.perf_counter()
            traced, _ = wl.traced_op(inp, log)
            timed += time.perf_counter() - t0
            notes += compare(f"op {i} traced", traced, out)
        tally(notes)
        i += 1
    speed.probe()
    return {
        "setup_s": [t1 - t0 for t0, t1 in setups],
        "setup_scale": speed.scales(setups),
        "lat": [t1 - t0 for t0, t1 in ops],
        "scale": speed.scales(ops),
        "delivered": delivered,
        "probes": speed.samples,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """Value with exactly ``TAIL_BEYOND`` samples above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def timings(setup_s: list[float], lat: list[float], delivered: int) -> dict:
    """Set-up median, op latency median and tail, and distances per second."""
    lat_ms = [x * 1e3 for x in lat] or [math.inf]
    return {
        "setup_s": statistics.median(setup_s),
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.tail": tail(lat_ms)[0],
        "distances_per_s": delivered / max(sum(lat), 1e-12),
    }


def end_to_end(res: dict, tally: Tally) -> tuple[dict, list[str]]:
    """End-to-end metrics, with times at the reference host speed."""
    norm = timings(
        [t * s for t, s in zip(res["setup_s"], res["setup_scale"])],
        [t * s for t, s in zip(res["lat"], res["scale"])],
        res["delivered"],
    )
    raw = timings(res["setup_s"], res["lat"], res["delivered"])
    units = {"setup_s": "s", "op_ms.p50": "ms", "op_ms.tail": "ms",
             "distances_per_s": "1/s"}
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {key: (value, units[key]) for key, value in norm.items()}
    metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    metrics["ok_rate"] = ((tally.attempted - tally.failed) / tally.attempted, "share")
    probes = res["probes"]
    notes = [
        "raw wall: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()),
        f"host probe median {statistics.median(probes) * 1e3:.4g} ms over "
        f"{len(probes)} probes (reference {HostSpeed.PROBE_REF_S * 1e3:g} ms)",
        f"op_ms.tail is p{tail(res['lat'] or [0.0])[1]:.2f} of {len(res['lat'])} ops",
        f"setup_s is the median of {len(res['setup_s'])} set-ups",
        f"error_rate {tally.failed / tally.attempted:.4g} "
        f"({tally.failed} of {tally.attempted} ops)",
    ]
    return metrics, notes


def per_layer(log, wl, res: dict) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Times prefer spans recorded on the ops' path and fall back to the
    layer walk; counts come from the walk, which runs on one fixed graph
    per seed, except the router counts of workloads whose ops commit.
    """

    def pick(name):
        spans = log.named(name)
        return [s for s in spans if s.source != "walk"] or spans

    def walked(name, attr):
        return log.named(name, "walk")[0].attrs[attr]

    def ms(name):
        return statistics.median(s.ms for s in pick(name))

    sweeps = pick("core.sweep")
    commits = pick("session.commit")
    router = wl.router_counts()
    if router is None:
        decisions = [s.attrs["decision"] for s in log.named("session.commit", "walk")]
        router = {k: decisions.count(k) for k in ("fold", "resolve")}
    m = {
        "plan.analyze_ms": (ms("plan.analyze"), "ms"),
        "plan.key_ms": (ms("plan.key"), "ms"),
        "ordering.nd_ms": (ms("ordering.nd"), "ms"),
        "ordering.amd_ms": (ms("ordering.amd"), "ms"),
        "ordering.reduce_ms": (ms("ordering.reduce"), "ms"),
        "ordering.reduce_eliminated": (walked("ordering.reduce", "eliminated"), "count"),
        "ordering.max_separator": (walked("ordering.nd", "max_separator"), "count"),
        "symbolic.ms": (statistics.median(s.ms - s.attrs["key_ms"] for s in pick("symbolic")), "ms"),
        "symbolic.supernodes": (walked("symbolic", "supernodes"), "count"),
        "symbolic.fill_rows": (walked("symbolic", "fill_rows"), "count"),
        "core.sweep_ms": (ms("core.sweep"), "ms"),
        "core.ops": (walked("core.sweep", "ops"), "count"),
        "core.ops_per_s": (statistics.median(s.attrs["ops"] / (s.ms / 1e3) for s in sweeps), "1/s"),
        "core.sweep_ms.thread": (ms("core.sweep.thread"), "ms"),
        "core.sweep_ms.process": (ms("core.sweep.process"), "ms"),
        "semiring.gemm_calls": (walked("core.sweep", "gemm_calls"), "count"),
        "semiring.gemm_ops_per_s": (statistics.median(
            s.attrs["gemm_ops"] / s.attrs["gemm_seconds"]
            for s in sweeps if s.attrs["gemm_seconds"] > 0
        ), "1/s"),
        "session.fold_ms": (statistics.median(
            s.ms for s in commits if s.attrs["decision"] == "fold"), "ms"),
        "session.resolve_ms": (statistics.median(
            s.ms for s in commits if s.attrs["decision"] == "resolve"), "ms"),
        "router.fold": (router["fold"], "count"),
        "router.resolve": (router["resolve"], "count"),
        "router.log2_err.p50": (statistics.median(
            abs(math.log2(s.attrs["predicted_s"] / s.attrs["actual_s"]))
            for s in commits
            if s.attrs["predicted_s"] > 0 and s.attrs["actual_s"] > 0
        ), "log2"),
        "serve.index_build_ms": (ms("serve.index_build"), "ms"),
        "serve.join_ms": (ms("serve.join"), "ms"),
        "serve.frontend_ms": (statistics.median(
            s.ms - s.attrs["join_ms"] for s in pick("serve.frontend")), "ms"),
        "serve.label_entries": (walked("serve.index_build", "entries"), "count"),
        "serve.index_mb": (walked("serve.index_build", "bytes") / 2**20, "MB"),
    }
    # Coverage: layer self-times inside op spans over the op spans' time.
    spans = log.spans
    self_ms = log.self_ms()
    root = []
    for idx, s in enumerate(spans):
        root.append(idx if s.parent < 0 else root[s.parent])
    ops = [s for s in spans if s.parent < 0 and s.name == "op"]
    covered = sum(
        self_ms[idx] for idx, s in enumerate(spans)
        if s.parent >= 0 and spans[root[idx]].name == "op"
    )
    m["trace.coverage"] = (covered / sum(s.ms for s in ops), "share")
    untraced_p50 = statistics.median(x * 1e3 for x in res["lat"])
    m["trace.overhead"] = (statistics.median(s.ms for s in ops) / untraced_p50 - 1.0, "share")
    return m


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_library()
    from spans import SpanLog
    from workloads import WORKLOADS

    print("host:", json.dumps(host_block()))
    wl = WORKLOADS[name](seed)
    log = SpanLog()
    tally = Tally()
    log.source = "op"
    res = run_ops(wl, seconds, trace, log, tally)
    notes: list[str] = []
    if trace:
        log.source, log.op = "walk", -1
        wl.walk(log, tally)
        # The walk's process pool started multiprocessing's resource
        # tracker; stop it and wait for it rather than leave it behind.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
        metrics = per_layer(log, wl, res)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{name}-seed{seed}.json"
        path.write_text(json.dumps(log.to_json()))
        notes.append(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(res, tally)
    by_role: dict[str, list] = {}
    for role, n, m, dig in wl.recorded:
        by_role.setdefault(role, []).append((n, m, dig))
    for role, rows in by_role.items():
        ms = [r[1] for r in rows]
        print(f"input {name}/{role}: {len(rows)} x n={rows[0][0]} "
              f"m={min(ms)}..{max(ms)} digest={rows[0][2]}"
              + (f"..{rows[-1][2]}" if len(rows) > 1 else ""))
    print(f"workload {name} seed={seed} seconds={seconds} trace={int(trace)} "
          f"ops={len(res['lat'])}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for note in tally.notes[:20]:
        print(f"  ! {note}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own child process; merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"  ! {name} printed no result (exit {proc.returncode})")
            merged["correct"] = False
            status = status or 1
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

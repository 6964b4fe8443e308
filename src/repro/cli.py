"""Command-line interface.

Usage::

    python -m repro solve mygraph.mtx --method superfw --out dist.npy
    python -m repro solve --generate grid2d:24 --method dijkstra
    python -m repro solve mygraph.mtx --plan-cache .plans/
    python -m repro plan mygraph.mtx --out mygraph.plan.npz
    python -m repro plan --inspect mygraph.plan.npz
    python -m repro info mygraph.mtx
    python -m repro trace --generate grid2d:16 --backend process --out trace.json
    python -m repro experiment fig6a --size-factor 0.4
    python -m repro bench-gemm --sizes 64,128,256
    python -m repro update --generate grid2d:16 --synth 20x8 --per-edge

``--generate`` accepts ``name:arg1,arg2`` specs against
:mod:`repro.graphs.generators` (``grid2d:16``, ``delaunay_mesh:500``,
``barabasi_albert:300,4``, ...).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _load_graph(args):
    from repro.graphs import generators
    from repro.graphs.io import read_matrix_market

    directed = getattr(args, "directed", False)
    if args.generate:
        spec = args.generate
        name, _, argstr = spec.partition(":")
        builder = getattr(generators, name, None)
        if builder is None:
            raise SystemExit(f"unknown generator {name!r}")
        gen_args = [int(float(tok)) for tok in argstr.split(",") if tok] if argstr else []
        graph = builder(*gen_args, seed=args.seed)
        if directed:
            from repro.graphs.digraph import orient_randomly

            graph = orient_randomly(graph, seed=args.seed)
        return graph
    if not args.graph:
        raise SystemExit("provide a Matrix-Market file or --generate SPEC")
    return read_matrix_market(args.graph, directed=directed)


def _solve_budget(args):
    from repro.resilience.budget import SolveBudget

    if args.budget_seconds is None and args.budget_ops is None:
        return None
    return SolveBudget(wall_seconds=args.budget_seconds, max_ops=args.budget_ops)


def _parse_chaos(spec: str) -> dict:
    """Parse ``--chaos`` specs like ``worker_kill:0.05,worker_hang:0.1:5``.

    Each comma-separated entry is ``site:rate`` — ``worker_hang``
    optionally takes a third ``:seconds`` field for the hang duration.
    Returns :class:`~repro.resilience.faults.FaultSpec` keyword fields.
    """
    sites = {"worker_kill", "worker_hang", "shm_detach"}
    fields: dict = {}
    for token in spec.split(","):
        if not token:
            continue
        parts = token.split(":")
        name = parts[0].strip().replace("-", "_")
        if name not in sites or len(parts) < 2:
            raise SystemExit(
                f"bad chaos entry {token!r}; expected SITE:RATE with SITE "
                f"one of {sorted(sites)} (worker_hang takes :RATE:SECONDS)"
            )
        try:
            fields[f"{name}_rate"] = float(parts[1])
            if name == "worker_hang" and len(parts) > 2:
                fields["worker_hang_seconds"] = float(parts[2])
        except ValueError:
            raise SystemExit(f"bad chaos rate in {token!r}") from None
    return fields


def _fault_context(args):
    """An ``inject_faults`` context when any --fault-*/--chaos rate is set."""
    import contextlib

    from repro.resilience.faults import FaultSpec, inject_faults

    chaos = _parse_chaos(args.chaos) if getattr(args, "chaos", None) else {}
    if not (args.fault_tasks or args.fault_kernels or args.fault_corrupt or chaos):
        return contextlib.nullcontext()
    return inject_faults(
        FaultSpec(
            seed=args.fault_seed,
            task_failure_rate=args.fault_tasks,
            kernel_error_rate=args.fault_kernels,
            kernel_corruption_rate=args.fault_corrupt,
            **chaos,
        )
    )


def _cmd_solve(args) -> int:
    from repro.core.api import apsp

    graph = _load_graph(args)
    options = _solver_options(args)
    plan_methods = ("superfw", "superbfs", "parallel-superfw", "auto")
    if args.plan_cache and args.method in plan_methods:
        from repro.plan import PlanCache
        from repro.plan.keys import PLAN_PARAM_DEFAULTS

        cache = PlanCache(directory=args.plan_cache)
        # The cached plan is analyzed with the same options the solve
        # passes beside it, which must agree with the plan's own.
        params = {k: v for k, v in options.items() if k in PLAN_PARAM_DEFAULTS}
        if args.method == "superbfs":
            params.setdefault("ordering", "bfs")
        options["plan"] = cache.get_or_analyze(graph, **params)
        stats = cache.stats()
        source = "disk" if stats["disk_hits"] else "analyzed"
        print(
            f"plan: {options['plan'].plan_id} ({source}, "
            f"cache dir {args.plan_cache})"
        )
    with _fault_context(args):
        result = apsp(
            graph,
            method=args.method,
            detect_negative_cycles=args.detect_negative_cycles,
            budget=_solve_budget(args),
            **options,
        )
    finite = np.isfinite(result.dist)
    offdiag = finite & ~np.eye(graph.n, dtype=bool)
    print(f"method: {result.method}")
    for attempt in result.meta.get("attempts", []):
        line = f"attempt: {attempt['method']} -> {attempt['status']}"
        if attempt.get("error"):
            line += f" ({attempt['error']})"
        print(line)
    print(f"graph: n={graph.n}, stored arcs={graph.nnz}")
    print(f"solve time: {result.solve_seconds() * 1e3:.1f} ms")
    if result.ops.total:
        print(f"semiring ops: {result.ops.total:.4g}")
    if "backend" in result.meta:
        print(
            f"backend: {result.meta['backend']} "
            f"(workers={result.meta['num_workers']})"
        )
    engine_stats = result.meta.get("engine")
    if engine_stats and engine_stats.get("strategies"):
        parts = ", ".join(
            f"{name}: {v['calls']} calls / {v['ops']:.3g} ops / "
            f"{v['seconds'] * 1e3:.1f} ms"
            for name, v in engine_stats["strategies"].items()
        )
        print(f"engine: {parts}")
    if offdiag.any():
        print(f"reachable pairs: {int(offdiag.sum())}")
        print(f"mean distance: {result.dist[offdiag].mean():.6g}")
        print(f"diameter: {result.dist[offdiag].max():.6g}")
    if args.out:
        np.save(args.out, result.dist)
        print(f"distance matrix written to {args.out}")
    return 0


def _solver_options(args) -> dict:
    """Backend options shared by the ``solve`` and ``trace`` subcommands."""
    options = {}
    if getattr(args, "reduce", False):
        # Passed through unconditionally so reduce-unaware methods get the
        # typed guard error instead of a silently ignored flag.
        options["reduce"] = True
    if args.method in ("superfw", "superbfs", "parallel-superfw", "auto"):
        options["seed"] = args.seed
        if getattr(args, "ordering", None) is not None:
            options["ordering"] = args.ordering
    if args.method in ("parallel-superfw", "auto"):
        if args.backend != "thread":
            options["backend"] = args.backend
        if args.workers is not None:
            options["num_workers"] = args.workers
        if getattr(args, "no_supervise", False):
            options["supervise"] = False
        elif (
            getattr(args, "task_timeout", None) is not None
            or getattr(args, "max_pool_rebuilds", None) is not None
        ):
            from repro.resilience.supervisor import SupervisorPolicy

            fields = {}
            if args.task_timeout is not None:
                fields["task_timeout"] = args.task_timeout
            if args.max_pool_rebuilds is not None:
                fields["max_pool_rebuilds"] = args.max_pool_rebuilds
            options["supervise"] = SupervisorPolicy(**fields)
        if getattr(args, "checkpoint", None):
            options["checkpoint"] = args.checkpoint
        if getattr(args, "resume", False):
            options["resume"] = True
    return options


def _cmd_trace(args) -> int:
    from repro.core.api import apsp
    from repro.obs import Tracer, flame_summary, write_chrome_trace, write_csv

    graph = _load_graph(args)
    tracer = Tracer()
    result = apsp(graph, method=args.method, trace=tracer, **_solver_options(args))
    events = tracer.events()
    pids = {e.pid for e in events}
    n_events = write_chrome_trace(
        tracer, args.out,
        metadata={"method": result.method, "n": int(graph.n)},
    )
    print(f"method: {result.method}")
    print(f"graph: n={graph.n}, stored arcs={graph.nnz}")
    print(f"solve time: {result.solve_seconds() * 1e3:.1f} ms")
    print(
        f"trace: {n_events} events from {len(pids)} process(es) "
        f"-> {args.out}"
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    if args.csv:
        rows = write_csv(tracer, args.csv)
        print(f"csv: {rows} rows -> {args.csv}")
    print()
    print(flame_summary(tracer))
    return 0


def _cmd_plan(args) -> int:
    from repro.plan import Plan, analyze

    if args.inspect:
        plan = Plan.load(args.inspect)
        print(f"plan file: {args.inspect}")
        for k, v in sorted(plan.describe().items()):
            print(f"{k}: {v}")
        return 0
    graph = _load_graph(args)
    plan = analyze(
        graph,
        ordering=args.ordering,
        leaf_size=args.leaf_size,
        seed=args.seed,
        reduce=args.reduce,
    )
    print(f"analyzed n={graph.n} in "
          f"{plan.preprocessing_seconds() * 1e3:.1f} ms")
    for k, v in sorted(plan.describe().items()):
        print(f"{k}: {v}")
    if args.out:
        plan.save(args.out)
        print(f"plan written to {args.out}")
    return 0


def _cmd_query(args) -> int:
    import time

    graph = _load_graph(args)
    pairs = []
    for spec in args.pairs:
        try:
            a, b = (int(tok) for tok in spec.split(":"))
        except ValueError:
            raise SystemExit(f"bad pair {spec!r}; expected SRC:DST") from None
        if not (0 <= a < graph.n and 0 <= b < graph.n):
            raise SystemExit(f"pair {spec!r} out of range 0..{graph.n - 1}")
        pairs.append((a, b))
    if not pairs and not args.random:
        raise SystemExit("provide SRC:DST pairs and/or --random K")

    from repro.plan.cache import PlanCache
    from repro.serve import DistanceServer

    cache = PlanCache(directory=args.plan_cache) if args.plan_cache else None
    server = DistanceServer(graph, method=args.method, cache=cache)
    t0 = time.perf_counter()
    index = server.refresh()
    build_s = time.perf_counter() - t0
    sizes = index.label_sizes()
    print(
        f"index: {index.entries} label entries over {graph.n} vertices "
        f"in {index.ncomp} shard(s) (mean width {sizes.mean():.1f}, "
        f"max width {int(sizes.max()) if graph.n else 0}), "
        f"built from the {index.source} in {build_s * 1e3:.1f} ms"
    )
    for a, b in pairs:
        print(f"dist({a}, {b}) = {server.query(a, b):.6g}")
    rand_pairs: list[tuple[int, int]] = []
    if args.random:
        rng = np.random.default_rng(args.seed)
        draws = rng.integers(0, graph.n, (args.random, 2))
        rand_pairs = [(int(a), int(b)) for a, b in draws]
        sources = draws[:, 0]
        targets = draws[:, 1]
        t0 = time.perf_counter()
        for k in range(0, len(sources), args.batch_size):
            server.query_many(
                sources[k:k + args.batch_size], targets[k:k + args.batch_size]
            )
        dt = time.perf_counter() - t0
        print(f"{args.random} random queries in {dt * 1e3:.1f} ms "
              f"({args.random / max(dt, 1e-12):,.0f} queries/s, "
              f"batch size {args.batch_size})")
    if args.stats:
        for key, value in sorted(server.stats().items()):
            print(f"{key}: {value}")
    if args.verify:
        # Check the index built above (factor-built when the session had
        # no epoch yet): reading the full matrix publishes an epoch, after
        # which the server would rebuild from it.
        return _verify_queries(
            pairs + rand_pairs, index.query_one, np.asarray(server.session.dist)
        )
    return 0


def _verify_queries(pairs, query, dist) -> int:
    """Spot-check ``query`` answers against the full matrix ``dist``."""
    bad = 0
    for a, b in pairs:
        got, want = query(a, b), float(dist[a, b])
        same_inf = np.isinf(got) and np.isinf(want)
        if not (same_inf or np.isclose(got, want)):
            print(f"VERIFY FAILED: dist({a}, {b}) = {got!r}, matrix says "
                  f"{want!r}", file=sys.stderr)
            bad += 1
    print(f"verified {len(pairs)} queries against the full matrix: "
          f"{'OK' if not bad else f'{bad} mismatches'}")
    return 1 if bad else 0


def _cmd_info(args) -> int:
    from repro.analysis.stats import fill_statistics
    from repro.ordering.nested_dissection import nested_dissection

    graph = _load_graph(args)
    print(f"n = {graph.n}")
    print(f"edges = {graph.num_edges}")
    print(f"nnz/n = {graph.density:.3f}")
    nd = nested_dissection(graph, seed=args.seed)
    print(f"top separator |S| = {nd.top_separator_size}")
    print(f"n/|S| = {graph.n / max(nd.top_separator_size, 1):.1f}")
    stats = fill_statistics(graph, nd.perm)
    print(f"factor nnz (ND) = {stats['nnz_factor']}")
    print(f"fill ratio = {stats['fill_ratio']:.2f}")
    est = 2.0 * graph.n**2 * nd.top_separator_size
    print(f"estimated SuperFW work = {est:.3g} ops "
          f"(dense FW: {2.0 * graph.n**3:.3g})")
    return 0


def _cmd_experiment(args) -> int:
    import contextlib
    import io as _io

    from repro import experiments
    from repro.experiments.common import save_table

    runners = {
        "fig6a": lambda: experiments.run_fig6a(size_factor=args.size_factor, seed=args.seed),
        "fig6b": lambda: experiments.run_fig6b(size_factor=args.size_factor, seed=args.seed),
        "fig7": lambda: experiments.run_fig7(size_factor=args.size_factor, seed=args.seed),
        "fig8": lambda: experiments.run_fig8(size_factor=args.size_factor, seed=args.seed),
        "table2": lambda: experiments.run_table2(seed=args.seed),
        "table3": lambda: experiments.run_table3(size_factor=args.size_factor, seed=args.seed),
        "preprocessing": lambda: experiments.run_preprocessing(size_factor=args.size_factor, seed=args.seed),
        "ablation-ordering": lambda: experiments.run_ordering_ablation(size_factor=args.size_factor, seed=args.seed),
        "worklaw": lambda: experiments.run_worklaw(seed=args.seed),
        "gemm": lambda: experiments.run_gemm_rates(),
        "hierarchy": lambda: experiments.run_hierarchy(
            size_factor=args.size_factor, seed=args.seed
        ),
        "size-sweep": lambda: experiments.run_size_sweep(seed=args.seed),
    }
    def run_one(name: str) -> None:
        if not args.save:
            runners[name]()
            return
        # Capture the printed table(s) and persist under results/.
        buf = _io.StringIO()
        with contextlib.redirect_stdout(buf):
            runners[name]()
        text = buf.getvalue()
        print(text, end="")
        path = save_table(f"cli_{name}", text.strip())
        print(f"[saved to {path}]")

    if args.name == "all":
        for name in runners:
            run_one(name)
        return 0
    if args.name not in runners:
        raise SystemExit(
            f"unknown experiment {args.name!r}; choose from "
            f"{sorted(runners)} or 'all'"
        )
    run_one(args.name)
    return 0


def _cmd_bench_gemm(args) -> int:
    from repro.experiments.gemm import run_gemm_rates

    sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    run_gemm_rates(sizes=sizes)
    return 0


def _read_update_stream(path: str) -> list[list[tuple[int, int, float]]]:
    """Parse a reweight stream file into ticks.

    Each non-comment line is ``u v w`` (retarget arc ``u->v`` to weight
    ``w``); a blank line closes the current tick, so consecutive blocks
    of lines become batches committed together.
    """
    ticks: list[list[tuple[int, int, float]]] = []
    current: list[tuple[int, int, float]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                if current:
                    ticks.append(current)
                    current = []
                continue
            if line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise SystemExit(
                    f"{path}:{lineno}: expected 'u v w', got {line!r}"
                )
            try:
                current.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise SystemExit(
                    f"{path}:{lineno}: bad update line {line!r}"
                ) from None
    if current:
        ticks.append(current)
    return ticks


def _cmd_update(args) -> int:
    import time

    from repro.core.incremental import reweight_stream
    from repro.plan import APSPSession

    graph = _load_graph(args)
    if args.stream and args.synth:
        raise SystemExit("--stream and --synth are mutually exclusive")
    if args.stream:
        ticks = _read_update_stream(args.stream)
    elif args.synth:
        try:
            t_str, _, k_str = args.synth.partition("x")
            n_ticks, per_tick = int(t_str), int(k_str)
        except ValueError:
            raise SystemExit(
                f"bad --synth spec {args.synth!r}; expected TICKSxK like 20x8"
            ) from None
        ticks = list(
            reweight_stream(
                graph,
                ticks=n_ticks,
                per_tick=per_tick,
                p_increase=args.p_increase,
                seed=args.seed,
            )
        )
    else:
        raise SystemExit("provide --stream FILE or --synth TICKSxK")
    if not ticks:
        raise SystemExit("empty update stream")

    session = APSPSession(graph, method=args.method, **_solver_options(args))
    session.solve()
    print(f"graph: n={graph.n}, stored arcs={graph.nnz}")
    decisions: dict[str, int] = {}
    improved_total = 0
    n_updates = sum(len(tick) for tick in ticks)
    start = time.perf_counter()
    for i, tick in enumerate(ticks):
        session.apply_updates(tick)
        info = session.commit()
        decisions[info.decision] = decisions.get(info.decision, 0) + 1
        if info.improved > 0:
            improved_total += info.improved
        if not args.quiet:
            line = (
                f"tick {i}: k={info.k} ({info.coalesced} coalesced) "
                f"-> {info.decision} in {info.actual_seconds * 1e3:.1f} ms"
            )
            if info.improved >= 0:
                line += f", {info.improved} entries improved"
            if info.degraded:
                line += " [DEGRADED: previous epoch still published]"
            print(line)
    elapsed = time.perf_counter() - start
    print(
        f"committed {len(ticks)} batches / {n_updates} updates in "
        f"{elapsed * 1e3:.1f} ms ({n_updates / max(elapsed, 1e-12):.0f} updates/s)"
    )
    print(
        "decisions: "
        + ", ".join(f"{k}={v}" for k, v in sorted(decisions.items()))
    )
    print(f"epoch: {session.epoch.index} ({session.epoch.weights_digest})")
    if session.stale:
        print("WARNING: published epoch is stale (a commit was degraded)")

    if args.per_edge:
        # Replay the same stream one edge at a time through update_edge to
        # show what batching buys (each increase pays a full warm re-solve).
        base = _load_graph(args)
        ref = APSPSession(base, method=args.method, **_solver_options(args))
        ref.solve()
        start = time.perf_counter()
        for tick in ticks:
            for u, v, w in tick:
                ref.update_edge(u, v, w)
        ref_elapsed = time.perf_counter() - start
        print(
            f"per-edge replay: {ref_elapsed * 1e3:.1f} ms "
            f"({n_updates / max(ref_elapsed, 1e-12):.0f} updates/s, "
            f"batched speedup {ref_elapsed / max(elapsed, 1e-12):.1f}x)"
        )
        delta = float(np.max(np.abs(np.asarray(ref.dist) - np.asarray(session.dist))))
        if np.array_equal(ref.dist, session.dist):
            print("per-edge replay matches batched epochs bit-identically")
        elif delta <= 1e-9:
            # Rank-1 fold chains re-associate float sums; on non-dyadic
            # weights they can drift by an ulp where batched epochs stay
            # bit-identical to a from-scratch solve (quantize weights to
            # WEIGHT_QUANTUM multiples for exact agreement).
            print(
                f"per-edge replay matches batched epochs within float "
                f"tolerance (max |delta| = {delta:.3g})"
            )
        else:
            print(
                f"ERROR: per-edge replay diverged from batched epochs "
                f"(max |delta| = {delta:.3g})"
            )
            return 1
    if args.out:
        np.save(args.out, np.asarray(session.dist))
        print(f"final epoch distance matrix written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Supernodal all-pairs shortest paths (PPoPP'20 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("graph", nargs="?", help="Matrix-Market file")
        p.add_argument(
            "--generate",
            metavar="SPEC",
            help="generator spec like grid2d:16 or barabasi_albert:300,4",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--directed",
            action="store_true",
            help="read the file as arcs / randomly orient the generated graph",
        )

    solve = sub.add_parser("solve", help="compute APSP on a graph")
    add_graph_args(solve)
    solve.add_argument(
        "--method",
        default="superfw",
        help="backend name, or 'auto' for the verified fallback chain",
    )
    solve.add_argument("--out", help="write the distance matrix (.npy)")
    solve.add_argument(
        "--reduce",
        action="store_true",
        help="contract the graph with exact weight-independent reductions "
        "before ordering (SuperFW-family methods; see docs/ORDERING.md)",
    )
    solve.add_argument(
        "--ordering",
        default=None,
        choices=["nd", "bfs", "natural", "amd", "auto"],
        help="fill-reducing ordering for the analyze phase; 'auto' scores "
        "nd vs amd from the symbolic structure and keeps the cheaper one",
    )
    solve.add_argument(
        "--backend",
        default="thread",
        choices=["thread", "process"],
        help="parallel-superfw executor: threads, or shared-memory processes",
    )
    solve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for parallel-superfw (default 4)",
    )
    solve.add_argument(
        "--plan-cache",
        metavar="DIR",
        help="reuse/persist analyze plans in DIR (plan-aware methods only)",
    )
    solve.add_argument(
        "--detect-negative-cycles",
        action="store_true",
        help="run Bellman-Ford up front; exit 2 on a negative cycle",
    )
    solve.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="abort (exit 3) past this much solve wall-clock",
    )
    solve.add_argument(
        "--budget-ops",
        type=float,
        default=None,
        help="abort (exit 3) past this many scalar semiring ops",
    )
    resilience = solve.add_argument_group(
        "supervision and checkpointing (backend=process recovery)"
    )
    resilience.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-level progress deadline; hung workers are killed, the "
        "pool rebuilt, and the level re-dispatched",
    )
    resilience.add_argument(
        "--max-pool-rebuilds",
        type=int,
        default=None,
        help="recovery budget before escalating process->thread->sequential",
    )
    resilience.add_argument(
        "--no-supervise",
        action="store_true",
        help="disable supervision (worker deaths abort with exit 5)",
    )
    resilience.add_argument(
        "--checkpoint",
        metavar="DIR",
        help="snapshot the distance matrix to DIR after each elimination "
        "level (keyed by plan + weights)",
    )
    resilience.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint, resume a killed solve from its last "
        "completed level",
    )
    faults = solve.add_argument_group(
        "fault injection (testing the recovery paths)"
    )
    faults.add_argument(
        "--chaos",
        metavar="SPEC",
        help="process-chaos sites, e.g. worker_kill:0.05,worker_hang:0.1:5 "
        "or shm_detach:0.02 (workers only; pair with --backend process)",
    )
    faults.add_argument(
        "--fault-tasks", type=float, default=0.0, metavar="RATE",
        help="per-attempt supernode task failure probability",
    )
    faults.add_argument(
        "--fault-kernels", type=float, default=0.0, metavar="RATE",
        help="per-call kernel exception probability",
    )
    faults.add_argument(
        "--fault-corrupt", type=float, default=0.0, metavar="RATE",
        help="per-call kernel NaN-corruption probability",
    )
    faults.add_argument(
        "--fault-seed", type=int, default=None,
        help="fault-injection seed (default: $REPRO_FAULT_SEED or 0)",
    )
    solve.set_defaults(func=_cmd_solve)

    info = sub.add_parser("info", help="structural statistics of a graph")
    add_graph_args(info)
    info.set_defaults(func=_cmd_info)

    trace = sub.add_parser(
        "trace",
        help="solve once with structured tracing; export a Chrome trace",
    )
    # Graph comes via flags (like `query`) to match the documented
    # `repro trace --graph FILE --out trace.json` shape.
    trace.add_argument("--graph", help="Matrix-Market file")
    trace.add_argument(
        "--generate",
        metavar="SPEC",
        help="generator spec like grid2d:16 or barabasi_albert:300,4",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--directed",
        action="store_true",
        help="read the file as arcs / randomly orient the generated graph",
    )
    trace.add_argument(
        "--method",
        default="parallel-superfw",
        help="backend to trace (default: parallel-superfw for a level timeline)",
    )
    trace.add_argument(
        "--reduce",
        action="store_true",
        help="contract the graph with exact weight-independent reductions "
        "before ordering (SuperFW-family methods; see docs/ORDERING.md)",
    )
    trace.add_argument(
        "--ordering",
        default=None,
        choices=["nd", "bfs", "natural", "amd", "auto"],
        help="fill-reducing ordering for the analyze phase; 'auto' scores "
        "nd vs amd from the symbolic structure and keeps the cheaper one",
    )
    trace.add_argument(
        "--backend",
        default="thread",
        choices=["thread", "process"],
        help="parallel-superfw executor: threads, or shared-memory processes",
    )
    trace.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for parallel-superfw (default 4)",
    )
    trace.add_argument(
        "--out",
        default="trace.json",
        help="Chrome trace_event JSON output path (Perfetto-loadable)",
    )
    trace.add_argument(
        "--csv",
        metavar="FILE",
        help="also write the span rows as a flat CSV",
    )
    trace.set_defaults(func=_cmd_trace)

    planp = sub.add_parser(
        "plan", help="run the analyze phase alone; save or inspect plans"
    )
    add_graph_args(planp)
    planp.add_argument("--out", help="write the plan (.plan.npz)")
    planp.add_argument(
        "--inspect",
        metavar="FILE",
        help="describe a saved plan instead of analyzing a graph",
    )
    planp.add_argument(
        "--ordering",
        default="nd",
        choices=["nd", "bfs", "natural", "amd", "auto"],
        help="fill-reducing ordering for the analysis ('auto' scores nd "
        "vs amd and keeps the modeled-cheaper one)",
    )
    planp.add_argument(
        "--reduce",
        action="store_true",
        help="apply exact weight-independent reductions before ordering; "
        "the trail is stored in the plan",
    )
    planp.add_argument("--leaf-size", type=int, default=32)
    planp.set_defaults(func=_cmd_plan)

    query = sub.add_parser(
        "query", help="point-to-point distances served from a hub-label index"
    )
    # Pairs are positional here, so the graph must come via flags to keep
    # argparse unambiguous.
    query.add_argument(
        "pairs", nargs="*", metavar="SRC:DST", help="vertex pairs like 0:99"
    )
    query.add_argument("--graph", help="Matrix-Market file")
    query.add_argument("--generate", metavar="SPEC")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--directed",
        action="store_true",
        help="read the file as arcs / randomly orient the generated graph",
    )
    query.add_argument(
        "--method",
        default="superfw",
        choices=["superfw", "superbfs", "parallel-superfw"],
        help="session solver that builds the epoch the index slices",
    )
    query.add_argument(
        "--random",
        type=int,
        default=0,
        metavar="K",
        help="also time K random pairs through the batched path",
    )
    query.add_argument(
        "--batch-size",
        type=int,
        default=4096,
        help="batch size for the --random throughput run",
    )
    query.add_argument(
        "--plan-cache",
        metavar="DIR",
        help="persistent plan cache directory for warm index builds",
    )
    query.add_argument(
        "--verify",
        action="store_true",
        help="check every printed/random answer against the full matrix",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print the server's serving counters",
    )
    query.set_defaults(func=_cmd_query)

    exp = sub.add_parser("experiment", help="run a paper table/figure")
    exp.add_argument("name", help="fig6a|fig6b|fig7|fig8|table2|table3|... or 'all'")
    exp.add_argument("--size-factor", type=float, default=0.5)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--save", action="store_true", help="also write the tables to results/"
    )
    exp.set_defaults(func=_cmd_experiment)

    gemm = sub.add_parser("bench-gemm", help="min-plus kernel rates")
    gemm.add_argument("--sizes", default="32,64,128,256")
    gemm.set_defaults(func=_cmd_bench_gemm)

    update = sub.add_parser(
        "update",
        help="replay a reweight stream through the epoch-based write path",
    )
    add_graph_args(update)
    update.add_argument(
        "--method",
        default="superfw",
        help="session solve method for re-solve commits",
    )
    update.add_argument(
        "--backend",
        default="thread",
        choices=["thread", "process"],
        help="parallel-superfw executor: threads, or shared-memory processes",
    )
    update.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for parallel-superfw (default 4)",
    )
    update.add_argument(
        "--stream",
        metavar="FILE",
        help="reweight stream: 'u v w' lines, blank lines separate ticks",
    )
    update.add_argument(
        "--synth",
        metavar="TICKSxK",
        help="synthesize a reweight stream, e.g. 20x8 = 20 ticks of 8 edges",
    )
    update.add_argument(
        "--p-increase",
        type=float,
        default=0.3,
        help="fraction of weight increases in the --synth stream",
    )
    update.add_argument(
        "--per-edge",
        action="store_true",
        help="also replay one edge at a time via update_edge and compare",
    )
    update.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-tick commit lines",
    )
    update.add_argument("--out", help="write the final epoch's matrix (.npy)")
    update.set_defaults(func=_cmd_update)
    return parser


#: Exit codes for typed failures (0 = ok, 1 = other ReproError).
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_FALLBACK_EXHAUSTED = 4
EXIT_WORKER_CRASH = 5


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Typed :class:`~repro.resilience.errors.ReproError` failures exit with
    a one-line message on stderr and a distinct code — 2 for input
    validation (including negative cycles), 3 for a blown solve budget,
    4 for an exhausted fallback chain, 5 for an unrecovered worker crash
    or task-deadline exhaustion — instead of a traceback.
    """
    from repro.resilience.errors import (
        BudgetExceededError,
        FallbackExhaustedError,
        GraphValidationError,
        ReproError,
        WorkerCrashError,
    )

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FallbackExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALLBACK_EXHAUSTED
    except WorkerCrashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_CRASH
    except GraphValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

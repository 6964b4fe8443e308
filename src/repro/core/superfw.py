"""SuperFW: the supernodal Floyd-Warshall algorithm (paper Algorithm 3).

The pipeline mirrors a supernodal sparse Cholesky solver:

1. **Analyze** (:func:`repro.plan.analyze`): fill-reducing ordering +
   symbolic analysis → a weight-independent :class:`~repro.plan.plan.Plan`
   holding the supernodal structure and elimination tree.  This is the
   pre-processing whose cost §5.1.4 reports — and the phase repeated
   solves amortize away entirely (see :mod:`repro.plan`).
2. **Sweep** (:func:`superfw`): eliminate supernodes in ascending order.
   Eliminating supernode ``k`` touches only the index set
   ``A(k) ∪ D(k)`` — its etree ancestors and descendants — because every
   other row of column ``k`` is provably still ``∞`` at step ``k``
   (the min-plus reading of the fill-path theorem).

The distance matrix is held dense in the permuted order (the APSP output
*is* dense); sparsity is exploited through the restriction of every kernel
to ``A(k) ∪ D(k)``, which is what turns ``O(n^3)`` into ``O(n^2 |S|)``.

The sequential sweep and the etree-parallel one
(:func:`repro.core.parallel_superfw.parallel_superfw`) are one algorithm
and share one sweep function, :func:`_sweep`: it owns every solve-level
step and hands barrier groups of supernodes to an *executor*, whose only job is
``run_group``.  Each supernode runs as one :func:`run_task` — fault
sites, retries and the transactional :func:`eliminate_supernode` — on
every executor alike, so a retried task is bit-exact everywhere.  The
sequential executor runs each group of sibling leaves that share their
ancestor rows as one task with one outer GEMM, bit-identical to
eliminating them one by one (:func:`leaf_tasks`).
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial

import numpy as np

from repro.core.result import APSPResult
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.obs import get_tracer, phase
from repro.obs.metrics import OpCounter
from repro.plan.plan import Plan, ensure_plan
from repro.resilience.budget import BudgetTracker, SolveBudget, as_tracker
from repro.resilience.checkpoint import CheckpointManager, solve_key, weights_sha
from repro.resilience.errors import (
    BudgetExceededError,
    NegativeCycleError,
    ReproError,
    TaskFailedError,
    WorkerCrashError,
)
from repro.resilience.faults import task_kernel_epoch, task_site
from repro.resilience.retry import DEFAULT_TASK_RETRY, RetryPolicy, call_with_retry
from repro.semiring.engine import get_engine
from repro.semiring.kernels import (
    diag_update,
    outer_update,
    panel_update_cols,
    panel_update_rows,
)
from repro.symbolic.structure import SupernodalStructure
from repro.util.perm import invert_permutation

#: The coordinator's single re-run of a task whose retries ran out.
_ONCE = RetryPolicy(max_attempts=1)


def _no_check() -> None:
    """Default (free) cooperative-abort hook for :func:`eliminate_supernode`."""


def _gather(dist: np.ndarray, row_runs, col_runs, shape) -> np.ndarray:
    """A private copy of the block ``row_runs × col_runs`` of ``dist``.

    Each run is ``(offset, start, stop)``: block rows (or columns)
    ``[offset, offset + stop - start)`` are matrix indices
    ``[start, stop)``, so the block is a handful of slice copies.
    """
    block = np.empty(shape, dtype=dist.dtype)
    for ro, r0, r1 in row_runs:
        for co, c0, c1 in col_runs:
            block[ro:ro + r1 - r0, co:co + c1 - c0] = dist[r0:r1, c0:c1]
    return block


def _scatter(dist: np.ndarray, row_runs, col_runs, block: np.ndarray) -> None:
    """Write ``block`` back where :func:`_gather` read it."""
    for ro, r0, r1 in row_runs:
        for co, c0, c1 in col_runs:
            dist[r0:r1, c0:c1] = block[ro:ro + r1 - r0, co:co + c1 - c0]


def _accumulate_aa(dist: np.ndarray, anc_runs, update: np.ndarray) -> None:
    """⊕-accumulate a deferred ``A(s) × A(s)`` update into ``dist`` in place."""
    for ro, r0, r1 in anc_runs:
        for co, c0, c1 in anc_runs:
            view = dist[r0:r1, c0:c1]
            np.minimum(view, update[ro:ro + r1 - r0, co:co + c1 - c0], out=view)


def _start_matrix(graph, iperm: np.ndarray, dtype) -> tuple[np.ndarray, bool]:
    """The permuted start matrix, and whether it is symmetric bit for bit.

    One ``inf`` fill, then each arc written at its relabelled position
    and a zero diagonal: ``graph.to_dense_dist()[np.ix_(perm, perm)]``
    without the ``n²`` gather.  An entry no arc writes is ``inf`` (or
    the diagonal's 0), so the matrix is symmetric exactly when every
    arc's entry has the bits of its mirror entry — an ``O(nnz)`` check.
    """
    n = graph.n
    dist = np.full((n, n), np.inf, dtype=dtype)
    rows = iperm[np.repeat(np.arange(n), np.diff(graph.indptr))]
    cols = iperm[graph.indices]
    dist[rows, cols] = graph.weights
    np.fill_diagonal(dist, 0.0)
    bits = f"u{dist.itemsize}"
    mirror = np.array_equal(
        dist[rows, cols].view(bits), dist[cols, rows].view(bits)
    )
    return dist, mirror


def _members(task: int | tuple[int, ...]) -> tuple[int, ...]:
    """The supernodes of a task: one supernode, or a tuple of them."""
    return tuple(task) if isinstance(task, tuple) else (int(task),)


def leaf_tasks(
    structure: SupernodalStructure, snodes
) -> list[int | tuple[int, ...]]:
    """``snodes`` as the sequential sweep's tasks, in order.

    The members of each :meth:`~repro.symbolic.structure.SupernodalStructure.leaf_groups`
    group that ``snodes`` holds become one task, a tuple, in the slot of
    the last of them; every other supernode is a task of its own.
    """
    owner = {s: g for g in structure.leaf_groups() for s in g}
    present: dict[tuple, list[int]] = {}
    for s in snodes:
        if s in owner:
            present.setdefault(owner[s], []).append(s)
    tasks = []
    for s in snodes:
        members = present.get(owner.get(s), [s])
        if s == members[-1]:
            tasks.append(tuple(members) if len(members) > 1 else s)
    return tasks


def eliminate_supernode(
    dist: np.ndarray,
    structure: SupernodalStructure,
    s: int | tuple[int, ...],
    *,
    counter: OpCounter | None = None,
    defer_aa: bool = False,
    check=None,
    mirror: bool = False,
) -> np.ndarray | None:
    """Eliminate one supernode of the permuted distance matrix, as a transaction.

    Performs DiagUpdate, the two PanelUpdates restricted to
    ``A(s) ∪ D(s)``, and the four-region MinPlus outer product of §3.4.
    ``A(s)`` is clipped to the symbolic fill block rows: the ancestors
    that actually receive finite values, a subset of Algorithm 3's
    literal ancestor chain.  Both sets are read and written as the
    contiguous column runs of
    :meth:`~repro.symbolic.structure.SupernodalStructure.row_runs` — on
    a postordered plan ``D(s)`` is one run and ``A(s)`` a few — so every
    gather and scatter is a handful of slice copies.
    Every kernel runs on a private copy of its block, and nothing is
    written back to ``dist`` until the last kernel and the last
    ``check()`` have returned.  An attempt that raises — an injected
    kernel or task fault, a cooperative budget abort — therefore leaves
    ``dist`` untouched, and a retry starts from exactly the inputs the
    first attempt saw: every retry is bit-exact, with no snapshot.

    ``s`` is one supernode or a tuple of the members of a leaf group
    (:meth:`~repro.symbolic.structure.SupernodalStructure.leaf_groups`).
    Each member runs its own DiagUpdate and PanelUpdates into its slice
    of one stacked panel ``[P₁ … P_K]`` (and ``[Q₁ … Q_K]``), and one
    outer GEMM of inner size ``Σ b`` updates the shared ``A×A`` block.
    The bits are those of eliminating the members one by one: no member
    writes another's diagonal block or panels, ``min`` is exact, and
    the stacked product takes the min over exactly the candidates the
    members' products form.

    ``defer_aa`` *returns* the ``A×A`` contribution, an
    ``|A(s)| × |A(s)|`` update, without touching that region, which is
    the only one two cousin supernodes can share (§3.5).  Both parallel
    executors pass it — pool threads and process workers alike hand the
    update to the coordinator, which applies the ⊕-accumulations itself,
    run by run (the paper's "those blocks are updated sequentially").
    ``check`` (when given) is a no-arg callable invoked
    between the kernels — a cooperative abort point for deadlines
    enforced inside process workers.  ``mirror`` says ``dist`` is
    symmetric bit for bit, as it stays through a sweep that starts
    symmetric: then the row panel is the closed column panel's
    transpose, and only the column PanelUpdate runs (the op counter
    still charges both, as the op law does).  Returns the deferred
    update, or ``None`` when nothing was deferred.
    """
    counter = counter if counter is not None else OpCounter()
    check = check if check is not None else _no_check
    tracer = get_tracer()
    members = _members(s)
    last = members[-1]
    size = {"members": len(members)} if len(members) > 1 else {}
    with tracer.span("eliminate", snode=last, **size):
        runs = structure.row_runs(last)
        nd, na = runs.nd, runs.na
        # The members' columns as runs of the stacked panels: sibling
        # leaves are often adjacent, so a group's panels move in a few
        # slice copies.
        cols, k = [], 0
        writes, diags = [], []
        for m in members:
            lo, hi = structure.col_range(m)
            if cols and cols[-1][2] == lo:
                cols[-1] = (cols[-1][0], cols[-1][1], hi)
            else:
                cols.append((k, lo, hi))
            k += hi - lo
            diag = dist[lo:hi, lo:hi].copy()
            with tracer.span("diag", snode=m):
                counter.add("diag", diag_update(diag))
            check()
            own = ((0, lo, hi),)
            writes.append((own, own, diag))
            diags.append(diag)
        update = None
        if nd or na:
            col_panel = _gather(dist, runs.rows, cols, (nd + na, k))
            if not mirror:
                row_panel = _gather(dist, cols, runs.rows, (k, nd + na))
            at = 0
            for m, diag in zip(members, diags):
                b = diag.shape[0]
                with tracer.span("panel", snode=m):
                    counter.add(
                        "panel", panel_update_cols(col_panel[:, at:at + b], diag)
                    )
                    if mirror:
                        counter.add("panel", 2 * b * b * (nd + na))
                    else:
                        counter.add(
                            "panel", panel_update_rows(row_panel[at:at + b], diag)
                        )
                check()
                at += b
            if mirror:
                row_panel = np.ascontiguousarray(col_panel.T)
            writes += [(runs.rows, cols, col_panel), (cols, runs.rows, row_panel)]
            d, a = slice(None, nd), slice(nd, None)
            if not defer_aa:
                regions = [(runs.rows, runs.rows, slice(None), slice(None))]
            else:
                # Parallel path: the D×D, D×A and A×D regions are private
                # to this supernode within an etree level; only A×A is
                # shared between cousins.
                regions = [(runs.desc, runs.desc, d, d)] if nd else []
                if nd and na:
                    regions += [(runs.desc, runs.anc, d, a),
                                (runs.anc, runs.desc, a, d)]
            with tracer.span("outer", snode=last) if regions else nullcontext():
                for rr, cr, rs, cs in regions:
                    lhs, rhs = col_panel[rs], row_panel[:, cs]
                    block = _gather(dist, rr, cr, (lhs.shape[0], rhs.shape[1]))
                    counter.add("outer", outer_update(block, lhs, rhs))
                    writes.append((rr, cr, block))
                    check()
            if defer_aa and na:
                with tracer.span("aa", snode=last):
                    update = np.full((na, na), np.inf)
                    counter.add(
                        "outer",
                        outer_update(update, col_panel[a], row_panel[:, a]),
                    )
        # Commit: every kernel has returned, so the writes cannot be torn
        # by a fault; cousins only share the A×A region.
        for rr, cr, block in writes:
            _scatter(dist, rr, cr, block)
    return update


def run_task(
    dist: np.ndarray,
    s: int | tuple[int, ...],
    *,
    structure: SupernodalStructure,
    retry: RetryPolicy,
    attempt_base: int = 0,
    **eliminate_options,
) -> tuple[int, OpCounter, tuple | None]:
    """One task: fault sites, retries, transactional elimination.

    ``s`` is a supernode, or a tuple of leaf-group members
    (:func:`leaf_tasks`).  Every executor runs supernodes through here —
    inline, on a pool thread, or inside a process worker — so kernel-
    and task-fault draws are keyed on ``(s, attempt_base + attempt)`` on
    all of them (a group's draws on its last member), and a failed
    attempt leaves ``dist`` untouched for the next.
    ``eliminate_options`` (``defer_aa`` / ``check`` / ``mirror``) pass
    through to :func:`eliminate_supernode`; ``check`` also runs before
    each attempt.  Returns ``(attempts_used, ops, aa_payload)``.
    """
    check = eliminate_options.get("check") or _no_check
    key = _members(s)[-1]

    def attempt(number: int):
        check()
        task_kernel_epoch(key, attempt_base + number)
        task_site(key, attempt_base + number)
        ops = OpCounter()
        payload = eliminate_supernode(
            dist, structure, s, counter=ops, **eliminate_options
        )
        return payload, ops

    (payload, ops), used = call_with_retry(attempt, retry)
    return used, ops, payload


def _collect(calls, apply) -> list[tuple[int, ReproError]]:
    """Run ``(s, call)`` pairs in order and ``apply`` each result.

    Returns the soft failures: tasks whose retries ran out with a typed
    error, for the sweep's coordinator re-run.  A blown budget is not
    soft and propagates at once.
    """
    failures = []
    for s, call in calls:
        try:
            value = call()
        except BudgetExceededError:
            raise
        except ReproError as exc:
            failures.append((s, exc))
        else:
            apply(s, value)
    return failures


class _Sequential:
    """Inline executor: a group's tasks run one by one, in group order.

    The base of every executor: ``dist`` is the working matrix the sweep
    reads and checkpoints, ``run_group(group, apply) -> failures`` is the
    only required operation, and ``escalate`` / ``close`` default to
    "no successor" and "nothing to release".  Given the ``structure``,
    the members of a leaf group that one group holds run as one task
    (:func:`leaf_tasks`); the parallel executors pass none.
    """

    def __init__(self, dist: np.ndarray, task, structure=None) -> None:
        self.dist = dist
        self.task = task
        self.structure = structure

    def run_group(self, group, apply):
        tasks = group
        if self.structure is not None and len(group) > 1:
            tasks = leaf_tasks(self.structure, group)
        return _collect(((t, partial(self.task, self.dist, t)) for t in tasks), apply)

    def escalate(self, exc: WorkerCrashError) -> "_Sequential":
        raise exc

    def close(self) -> None:
        pass


def _sweep(
    graph: Graph | DiGraph,
    plan: Plan | None,
    plan_options: dict,
    make_executor,
    *,
    name: str,
    backend: str,
    by_level: bool,
    dtype,
    budget,
    retry: RetryPolicy,
    checkpoint: CheckpointManager | None = None,
    resume: bool = False,
    meta: dict | None = None,
) -> APSPResult:
    """The one SuperFW sweep behind :func:`superfw` and ``parallel_superfw``.

    Owns every solve-level step: plan resolution (folding a cold
    analyze's timings into this solve), budget, reduction trail,
    permutation, engine stats, the ``solve`` span, checkpoint/resume,
    the negative-cycle witness, unpermute, unreduce and ``meta``.  The
    supernodes run in barrier groups — etree levels when ``by_level``,
    else one task per group in ascending order, with a leaf group's
    members in one task on the sequential backend (:func:`leaf_tasks`)
    — through the executor ``make_executor(dist, task, ...)`` returns.
    A task whose retries ran out gets one coordinator re-run after its
    group (a leaf group's is member by member, each with the full
    ``retry``), then raises :class:`TaskFailedError`; an executor that
    gives up with :class:`WorkerCrashError` hands the rest of the solve
    to its ``escalate`` successor.
    """
    plan, plan_reused = ensure_plan(plan, graph, **plan_options)
    # A cold (inline) plan's analyze cost belongs to this solve; a reused
    # plan's was paid elsewhere — warm solves report zero preprocessing,
    # which is the whole point of the split.
    timings = {} if plan_reused else dict(plan.timings)
    perm = plan.ordering.perm
    structure = plan.structure
    tracker = as_tracker(budget, units_total=structure.ns)
    if tracker is not None:
        tracker.check_allocation(
            float(graph.n) ** 2 * np.dtype(dtype).itemsize, where=f"{name}:dist"
        )
    applied = None
    solve_graph = graph
    if plan.trail is not None:
        # Replay the weight-independent trail on this solve's weights:
        # the sweep then runs on the reduced graph and the eliminated
        # vertices are reconstituted exactly after the closure.
        with phase(timings, "reduce", n=graph.n):
            applied = plan.trail.apply(graph)
            solve_graph = applied.graph
    iperm = invert_permutation(perm)
    with phase(timings, "permute", n=solve_graph.n):
        # A symmetric start matrix stays symmetric bit for bit, so every
        # supernode can mirror its panel.
        dist, mirror = _start_matrix(solve_graph, iperm, dtype)
    levels = structure.level_order()
    if by_level:
        groups = [[int(s) for s in g.tolist()] for g in levels]
    elif backend == "sequential":
        # One task per group; a leaf group's members run as one task, in
        # the slot of the last of them.
        groups = [[t] for t in leaf_tasks(structure, range(structure.ns))]
    else:
        groups = [[s] for s in range(structure.ns)]
    recovery: dict = {"task_retries": 0, "sequential_reruns": []}
    start = 0
    if checkpoint is not None:
        # The permuted matrix at a barrier is the entire solver state, so
        # a snapshot + group cursor resumes exactly.  Keyed by the digest
        # of the permuted input — a pure function of (plan, weights) — so
        # a session re-solve resumes exactly the epoch it was computing.
        digest = weights_sha(dist)
        flavor = "levels" if by_level else "snodes"
        ckpt_key = solve_key(plan.plan_id, digest, flavor)
        ckpt_meta = {
            "plan_id": plan.plan_id,
            "weights_sha": digest,
            "epoch_weights": weights_sha(graph.weights),
            "flavor": flavor,
            "groups_total": len(groups),
            "n": int(dist.shape[0]),
        }
        snapshot = checkpoint.load(ckpt_key, expect=ckpt_meta) if resume else None
        if snapshot is not None:
            matrix, start = snapshot
            start = min(int(start), len(groups))
            dist[:] = matrix
            recovery["resumed_from_group"] = start
    tracer = get_tracer()
    ops = OpCounter()
    task = partial(run_task, structure=structure, retry=retry, mirror=mirror)
    eng = get_engine()
    engine_before = eng.stats_snapshot()
    executor = make_executor(
        dist, task, plan=plan, eng=eng, tracker=tracker,
        recovery=recovery, retry=retry, mirror=mirror,
    )
    opened = [executor]
    dist = executor.dist  # escalated executors share this matrix

    def apply(s, value) -> None:
        used, local, payload = value
        recovery["task_retries"] += used - 1
        ops.merge(local)
        if payload is not None:
            with tracer.span("aa-apply", snode=s):
                _accumulate_aa(dist, structure.row_runs(s).anc, payload)
        if tracker is not None:
            tracker.charge(
                local.total, units=len(_members(s)), where=f"{name}:supernode {s}"
            )

    def rerun(s, cause: ReproError) -> None:
        members = _members(s)
        recovery["sequential_reruns"].extend(members)
        # A leaf group's attempts each run every member's kernels, so its
        # re-run splits it: each member runs as its own task with the full
        # policy, as likely to finish as it was before grouping.
        policy = _ONCE if len(members) == 1 else retry
        for m in members:
            try:
                value = task(dist, m, retry=policy, attempt_base=retry.max_attempts)
            except BudgetExceededError:
                raise
            except ReproError as exc:
                attempts = retry.max_attempts + policy.max_attempts
                raise TaskFailedError(
                    f"supernode {m} failed {attempts} attempts, "
                    f"the coordinator re-run included: {exc}",
                    supernode=m,
                    attempts=attempts,
                ) from cause
            apply(m, value)

    try:
        with phase(
            timings, "solve", method=name, backend=backend, ns=structure.ns
        ):
            index = start
            while index < len(groups):
                group = groups[index]
                span = (
                    tracer.span("level", index=index, size=len(group))
                    if by_level
                    else nullcontext()
                )
                try:
                    with span:
                        failures = executor.run_group(group, apply)
                except WorkerCrashError as exc:
                    executor = executor.escalate(exc)
                    opened.append(executor)
                    groups[index] = sorted(int(s) for s in exc.pending)
                    continue
                for s, cause in failures:
                    rerun(s, cause)
                index += 1
                if checkpoint is not None and checkpoint.due(index) and (
                    index < len(groups) or checkpoint.keep
                ):
                    with tracer.span("checkpoint.write", groups_done=index):
                        checkpoint.write(
                            ckpt_key, dist, groups_done=index, meta=ckpt_meta
                        )
        engine_stats = eng.stats_dict(since=engine_before)
        if np.any(np.diag(dist) < 0):
            kept = int(perm[int(np.argmin(np.diag(dist)))])
            if applied is not None:
                kept = int(applied.trail.kept[kept])
            raise NegativeCycleError(witness=kept)
        with phase(timings, "permute", n=iperm.shape[0]):
            out = dist[np.ix_(iperm, iperm)]
    finally:
        for opened_executor in opened:
            opened_executor.close()
    if checkpoint is not None and not checkpoint.keep:
        checkpoint.clear(ckpt_key)
    if applied is not None:
        with phase(timings, "unreduce", n=graph.n):
            out = applied.unreduce(out)
    if tracer.enabled:
        tracer.metrics.merge_ops(ops)
        tracer.metrics.inc("retries.task", recovery["task_retries"])
        tracer.metrics.inc("workspace.hits", engine_stats["workspace"]["hits"])
        tracer.metrics.inc("workspace.misses", engine_stats["workspace"]["misses"])
    method = name
    if name == "superfw" and plan.ordering.method != "nd":
        method = f"superfw-{plan.ordering.method}"
    return APSPResult(
        dist=out,
        method=method,
        timings=timings,
        ops=ops,
        meta={
            "plan": plan,
            "plan_id": plan.plan_id,
            "plan_reused": plan_reused,
            "weights_digest": weights_sha(graph.weights),
            **(meta or {}),
            "levels": [g.shape[0] for g in levels],
            "recovery": recovery,
            "engine": engine_stats,
            **({"reduce": plan.trail.stats()} if plan.trail is not None else {}),
            **({"obs": tracer.meta_snapshot()} if tracer.enabled else {}),
        },
    )


def superfw(
    graph: Graph | DiGraph,
    *,
    plan: Plan | None = None,
    dtype=np.float64,
    budget: SolveBudget | BudgetTracker | float | None = None,
    retry: RetryPolicy = DEFAULT_TASK_RETRY,
    **plan_options,
) -> APSPResult:
    """APSP by the sequential supernodal Floyd-Warshall (Algorithm 3).

    Parameters
    ----------
    graph:
        Input graph — undirected, or a :class:`~repro.graphs.digraph.DiGraph`
        for the LU-analogue directed sweep (negative weights allowed;
        negative cycles raise).
    plan:
        Optional pre-built :class:`~repro.plan.plan.Plan`; built on the
        fly (and timed separately) otherwise, with ``plan_options``
        forwarded to :func:`repro.plan.analyze`.  With a plan, any
        ``plan_options`` must equal the plan's own parameters
        (:func:`~repro.plan.plan.ensure_plan`).
    dtype:
        Distance-matrix dtype.  ``numpy.float32`` halves the ``8n²`` bytes
        at ~1e-7 relative accuracy — the same trade sparse direct solvers
        offer via single-precision factorization.
    budget:
        Optional :class:`~repro.resilience.budget.SolveBudget` (or bare
        seconds, or a started tracker) checked at per-supernode
        granularity; a blown budget raises
        :class:`~repro.resilience.errors.BudgetExceededError`.
    retry:
        Per-supernode retry policy; a supernode that exhausts it gets one
        more run before :class:`~repro.resilience.errors.TaskFailedError`.
        Tasks are transactional — a failed attempt writes nothing — so
        every retry is bit-exact.

    Returns
    -------
    APSPResult
        Distances in the original numbering; ``meta["plan"]`` carries the
        plan for inspection and reuse, ``meta["engine"]`` the ambient
        engine's per-kernel counters for this solve.
    """
    return _sweep(
        graph, plan, plan_options,
        lambda dist, task, plan, **_: _Sequential(dist, task, plan.structure),
        name="superfw",
        backend="sequential",
        by_level=False,
        dtype=dtype,
        budget=budget,
        retry=retry,
    )

"""Multi-solve session API: validate once, plan once, solve many times.

:class:`APSPSession` is the front door for the repeated-solve traffic
pattern the analyze/solve split exists for — road networks with
time-of-day weights, Monte-Carlo reweighting, iterative refinement.  The
graph's structure is validated and analyzed exactly once; every
subsequent :meth:`~APSPSession.solve` call pays only the cheap per-solve
weight check plus the numeric sweep.

Writes go through an *epoch-based* path: reweights stage into an
:class:`~repro.plan.epoch.UpdateBuffer`
(:meth:`~APSPSession.begin_batch` / :meth:`~APSPSession.apply_updates`)
and :meth:`~APSPSession.commit` materializes the whole tick at once — a
rank-k min-plus fold
(:func:`repro.core.incremental.apply_batch_improvements`), a warm
re-solve on the cached plan, or a full re-analysis when an insert
changed the pattern, whichever the calibrated
:class:`~repro.plan.router.UpdateRouter` prices cheapest.  The new
``(weights_digest, dist)`` state publishes as an immutable
:class:`~repro.plan.epoch.Epoch` with one atomic swap, so concurrent
readers (:attr:`~APSPSession.dist`, :meth:`~APSPSession.distance`)
always see a fully published epoch — stale during a commit, never torn.
A re-solve that dies (worker crash, exhausted supervision) leaves the
previous epoch published and surfaces a
:class:`~repro.resilience.errors.StaleEpochWarning` instead of taking
readers down.  :meth:`~APSPSession.update_edge` is a one-element batch
over the same machinery, so the single-edge and batch paths cannot
drift.

For ``backend="process"`` the session owns a persistent
:class:`~repro.core.parallel_superfw.SharedPlanPool`; weight-only
commits keep the plan — and therefore the warm pool — alive, and
checkpointed re-solves key on the epoch's weight digest.
"""

from __future__ import annotations

import threading
import time
import warnings
from typing import Any

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.graphs.validation import (
    negative_cycle_witness,
    validate_weight_array,
    validate_weights,
)
from repro.obs import coerce_tracer, get_tracer, use_tracer, write_chrome_trace
from repro.plan.cache import PlanCache
from repro.plan.epoch import CommitInfo, Epoch, UpdateBuffer
from repro.plan.keys import PLAN_PARAM_DEFAULTS
from repro.plan.plan import Plan, analyze
from repro.plan.router import UpdateRouter, fold_ops_estimate
from repro.resilience.checkpoint import weights_sha
from repro.resilience.errors import (
    NegativeCycleError,
    ReproError,
    StaleEpochWarning,
    UnknownMethodError,
)

#: Solver methods a session can drive (all plan-aware sweeps).
SESSION_METHODS = ("superfw", "superbfs", "parallel-superfw")


class APSPSession:
    """Amortizes planning and validation across many solves on one structure.

    Parameters
    ----------
    graph:
        Starting graph.  Weight updates keep the session's plan; edge
        additions invalidate it (re-analyzed lazily on the next solve).
    method:
        One of :data:`SESSION_METHODS`.
    plan:
        Optional prebuilt plan (structurally verified against ``graph``).
    cache:
        Optional :class:`~repro.plan.cache.PlanCache`; analyze results
        are fetched from / stored into it, including after structural
        invalidation.
    detect_negative_cycles:
        Run Bellman-Ford detection at construction and again whenever
        the weights change (weight-dependent, so it cannot be hoisted
        entirely — but structure validation can, and is).
    options:
        Analyze parameters (``ordering``, ``leaf_size``, ...) are split
        off and frozen into the plan; the rest (``backend``,
        ``num_workers``, ``dtype``, ...)
        become per-solve defaults that :meth:`solve` can override.
    """

    def __init__(
        self,
        graph: Graph | DiGraph,
        *,
        method: str = "superfw",
        plan: Plan | None = None,
        cache: PlanCache | None = None,
        detect_negative_cycles: bool = False,
        **options: Any,
    ) -> None:
        if method not in SESSION_METHODS:
            raise UnknownMethodError(
                f"APSPSession supports {list(SESSION_METHODS)}, not {method!r}"
            )
        self.method = method
        self.cache = cache
        self.detect_negative_cycles = bool(detect_negative_cycles)
        self._plan_params = {
            k: options.pop(k) for k in tuple(options) if k in PLAN_PARAM_DEFAULTS
        }
        if method == "superbfs":
            self._plan_params.setdefault("ordering", "bfs")
        self.solve_options = options
        self.solves = 0
        self.fast_updates = 0
        self.recomputes = 0
        self.commits = 0
        self._pool = None
        self._result = None
        self._closed = False
        self._epoch: Epoch | None = None
        self._batch: UpdateBuffer | None = None
        # One writer at a time; readers never take it (epoch swaps are
        # atomic attribute assignments).
        self._write_lock = threading.RLock()
        # The once-per-structure work: full validation + plan acquisition.
        validate_weights(graph)
        self.graph = graph
        self.directed = isinstance(graph, DiGraph)
        if self.detect_negative_cycles:
            self._check_negative_cycles()
        if plan is not None:
            plan.ensure(graph)
            self.plan = plan
        else:
            self.plan = self._acquire_plan(graph)
        self.router = UpdateRouter(self.plan)

    # ------------------------------------------------------------------
    def _acquire_plan(self, graph: Graph | DiGraph) -> Plan:
        if self.cache is not None:
            return self.cache.get_or_analyze(graph, **self._plan_params)
        return analyze(graph, **self._plan_params)

    def _check_negative_cycles(self, graph=None) -> None:
        witness = negative_cycle_witness(
            self.graph if graph is None else graph
        )
        if witness is not None:
            raise NegativeCycleError(witness=witness)

    def _ensure_pool(self, opts: dict[str, Any]):
        from repro.core.parallel_superfw import SharedPlanPool

        if self._pool is not None and self._pool.plan is not self.plan:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            self._pool = SharedPlanPool(
                self.plan,
                num_workers=opts.get("num_workers", 4),
            )
        return self._pool

    # ------------------------------------------------------------------
    def solve(self, weights: np.ndarray | None = None, **overrides: Any):
        """Solve APSP on the session's structure, optionally reweighted.

        ``weights`` replaces the full arc-weight array (same layout as
        ``graph.weights`` — for undirected graphs both mirror slots of
        each edge).  Structure validation is *not* repeated; only the
        cheap per-solve array check runs.  The result's
        ``meta["session"]`` records the solve index and plan identity;
        warm solves report zero preprocessing seconds.  A successful
        solve publishes a fresh epoch, so readers move to the new
        weights atomically.

        ``trace=`` (as in :func:`repro.core.api.apsp`) traces just this
        solve — the "analyze once, solve many, trace one" pattern: a
        warm process pool serves traced and untraced solves alike.

        Resilience overrides pass straight through to the backend:
        ``supervise=`` tunes (or disables) the supervised process
        backend, and ``checkpoint=`` / ``resume=True`` snapshot and
        restart long solves at elimination-level granularity — keyed by
        the weight digest of the epoch being computed.  A solve that
        exhausts its recovery budget terminates the session's warm
        pool; the next ``solve`` transparently rebuilds it.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        with self._write_lock:
            trace = overrides.pop("trace", None)
            if trace is not None:
                tracer, trace_path = coerce_tracer(trace)
                if tracer.enabled:
                    with use_tracer(tracer), tracer.span(
                        "session-solve", index=self.solves, method=self.method
                    ):
                        result = self.solve(weights, **overrides)
                    result.meta["obs"] = tracer.meta_snapshot()
                    result.meta["tracer"] = tracer
                    if trace_path is not None:
                        write_chrome_trace(
                            tracer, trace_path,
                            metadata={"method": self.method, "n": int(self.graph.n)},
                        )
                        result.meta["trace_path"] = trace_path
                    return result
            weights_changed = False
            if weights is not None:
                weights = np.asarray(weights, dtype=np.float64)
                validate_weight_array(
                    weights, expected_size=self.graph.weights.shape[0]
                )
                self.graph = self.graph.with_weights(weights)
                weights_changed = True
            if self.plan is None:
                # Structure changed since the last solve (a commit added
                # an edge): lazy re-analysis, through the cache when
                # present.
                self.plan = self._acquire_plan(self.graph)
                self.router.bind_plan(self.plan)
            if self.detect_negative_cycles and weights_changed:
                self._check_negative_cycles()
            opts = dict(self.solve_options)
            opts.update(overrides)
            result = self._dispatch(self.graph, opts)
            result.meta["session"] = {
                "solve_index": self.solves,
                "plan_id": self.plan.plan_id,
                "method": self.method,
            }
            self.solves += 1
            self._result = result
            self._publish(
                result.dist,
                result.meta.get("weights_digest")
                or weights_sha(self.graph.weights),
                source="solve",
            )
            return result

    def _dispatch(self, graph: Graph | DiGraph, opts: dict[str, Any]):
        if self.method in ("superfw", "superbfs"):
            from repro.core.superfw import superfw

            return superfw(graph, plan=self.plan, trust_plan=True, **opts)
        from repro.core.parallel_superfw import parallel_superfw

        if opts.get("backend") == "process":
            pool = self._ensure_pool(opts)
            return parallel_superfw(
                graph, plan=self.plan, trust_plan=True, pool=pool, **opts
            )
        return parallel_superfw(graph, plan=self.plan, trust_plan=True, **opts)

    def _publish(self, dist: np.ndarray, weights_digest: str, *,
                 source: str, meta: dict | None = None) -> Epoch:
        """Atomically publish ``dist`` as the next epoch."""
        prev = self._epoch
        info = {"source": source}
        if meta:
            info.update(meta)
        epoch = Epoch(
            prev.index + 1 if prev is not None else 0,
            weights_digest, dist, info,
        )
        self._epoch = epoch  # the one atomic swap readers race against
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metric_inc("epoch.published")
        return epoch

    # ------------------------------------------------------------------
    # The epoch-based write path: begin_batch / apply_updates / commit.
    # ------------------------------------------------------------------
    def begin_batch(self) -> UpdateBuffer:
        """Open (or return the already-open) staging buffer for this tick."""
        with self._write_lock:
            if self._batch is None:
                self._batch = UpdateBuffer(
                    self.graph.n, directed=self.directed
                )
            return self._batch

    def apply_updates(self, updates) -> UpdateBuffer:
        """Stage an iterable of ``(u, v, w)`` reweights into the open batch.

        Opens a batch if none is active.  Nothing is applied — readers
        keep seeing the current epoch — until :meth:`commit`.
        """
        buf = self.begin_batch()
        buf.extend(updates)
        return buf

    def commit(self, *, force: str | None = None, **overrides) -> CommitInfo:
        """Materialize the staged batch and publish the next epoch.

        Coalesces the buffer against the current weights (dropping net
        no-ops), routes the survivors through the cost model — rank-k
        fold, warm re-solve, or re-analysis — and atomically publishes
        the new ``(weights_digest, dist)`` epoch.  Solve ``overrides``
        (``supervise=``, ``checkpoint=``, ...) apply when the commit
        re-solves.  ``force`` pins the decision (``"fold"`` /
        ``"resolve"`` / ``"reanalyze"``) for benchmarks and tests;
        forcing an illegal fold (weight increases present) raises.

        If the re-solve fails with a typed
        :class:`~repro.resilience.errors.ReproError`, the previous epoch
        stays published, a
        :class:`~repro.resilience.errors.StaleEpochWarning` is issued,
        and the returned info has ``degraded=True`` — the session's
        graph already carries the new weights, so the next successful
        ``commit()`` or ``solve()`` heals the gap.
        """
        with self._write_lock:
            buf, self._batch = self._batch, None
            return self._commit_buffer(buf, force=force, overrides=overrides)

    def _commit_buffer(self, buf: UpdateBuffer | None, *, force=None,
                       overrides=None) -> CommitInfo:
        with get_tracer().span("session-commit") as span:
            info = self._commit_tick(buf, force, overrides)
            span.set(decision=info.decision, k=info.k, **{
                key: info.router[key] for key in ("terminals", "rows", "pairs")
                if key in info.router
            })
        return info

    def _commit_tick(self, buf: UpdateBuffer | None, force,
                     overrides) -> CommitInfo:
        started = time.perf_counter()
        current_index = self._epoch.index if self._epoch is not None else -1
        if not buf:
            self.commits += 1
            return CommitInfo(decision="noop", epoch_index=current_index)
        g = self.graph
        coalesced = buf.staged - len(buf)
        inserts: list[tuple[int, int, float]] = []
        changes: list[tuple[int, int, float, np.ndarray]] = []
        effective: list[tuple[int, int, float]] = []
        increases = decreases = 0
        for u, v, w in buf.items():
            slots = self._arc_slots(u, v)
            if slots.size == 0:
                inserts.append((u, v, w))
                effective.append((u, v, w))
                continue
            old = float(g.weights[slots[0]])
            if w == old:
                coalesced += 1  # net no-op: staged back to current value
                continue
            changes.append((u, v, w, slots))
            effective.append((u, v, w))
            if w > old:
                increases += 1
            else:
                decreases += 1
        if not effective:
            self.commits += 1
            return CommitInfo(
                decision="noop", epoch_index=current_index,
                coalesced=coalesced,
            )
        terminals = {u for u, _, _ in effective} | {v for _, v, _ in effective}

        # Build the post-commit graph off to the side (copy-on-write).
        new_weights = g.weights.copy()
        for u, v, w, slots in changes:
            new_weights[slots] = w
            if not self.directed:
                new_weights[self._arc_slots(v, u)] = w
        new_graph = g.with_weights(new_weights)
        if inserts:
            if self.directed:
                rows = np.vstack([new_graph.arc_array(), inserts])
                new_graph = DiGraph.from_edges(g.n, rows)
            else:
                canon = [(min(u, v), max(u, v), w) for u, v, w in inserts]
                rows = np.vstack([new_graph.edge_array(), canon])
                new_graph = Graph.from_edges(g.n, rows)
        if self.detect_negative_cycles and any(w < 0 for _, _, w in effective):
            self._check_negative_cycles(new_graph)

        decision = self.router.decide(
            n=g.n,
            k=len(effective),
            terminals=len(terminals),
            increases=increases,
            inserts=len(inserts),
            have_epoch=self._epoch is not None,
            have_plan=self.plan is not None,
        )
        if force is not None:
            if force not in ("fold", "resolve", "reanalyze"):
                raise ValueError(f"unknown forced decision {force!r}")
            if force == "fold" and (increases or self._epoch is None):
                raise ValueError(
                    "cannot force a fold: weight increases (or a missing "
                    "epoch) make the rank-k fold inexact"
                )
            decision.action = force
            decision.reason = "forced by caller"

        info = CommitInfo(
            decision=decision.action,
            epoch_index=current_index,
            k=len(effective),
            coalesced=coalesced,
            inserts=len(inserts),
            increases=increases,
            decreases=decreases,
            predicted_seconds=decision.predicted_seconds.get(
                decision.action, 0.0
            ),
            router=decision.record(),
        )
        structural = bool(inserts)
        self.graph = new_graph
        if decision.action == "fold":
            from repro.core.incremental import fold_batch

            if structural:
                self._invalidate_plan()
            # The new epoch's matrix, the fold's one n × n allocation.
            new_dist = np.array(self._epoch.dist)
            fold = fold_batch(new_dist, effective, directed=self.directed)
            info.improved = fold.improved
            info.router.update(rows=fold.rows, pairs=fold.pairs)
            self.fast_updates += 1
            self._publish(
                new_dist, weights_sha(self.graph.weights),
                source="fold", meta={"router": info.router},
            )
            # The fold has no op counter; its rank-k shape fixes its work.
            info.actual_ops = fold_ops_estimate(g.n, len(terminals))
            self.router.observe(
                "fold", info.actual_ops, time.perf_counter() - started
            )
        else:
            if decision.action == "reanalyze" or structural:
                self._invalidate_plan()
            self.recomputes += 1
            info.improved = -1  # full recompute, not a counted fold
            try:
                result = self.solve(**(overrides or {}))
            except ReproError as exc:
                info.degraded = True
                info.error = str(exc)
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.metric_inc("epoch.degraded")
                warnings.warn(
                    StaleEpochWarning(
                        f"commit re-solve failed ({exc}); epoch "
                        f"{current_index} stays published with pre-commit "
                        "weights",
                        epoch_index=current_index,
                        cause=exc,
                    ),
                    stacklevel=3,
                )
            else:
                result.meta["router"] = info.router
                self._epoch.meta["router"] = info.router
                info.actual_ops = float(result.ops.total)
                self.router.observe(
                    "resolve", info.actual_ops, time.perf_counter() - started
                )
        info.actual_seconds = time.perf_counter() - started
        info.router["actual_seconds"] = round(info.actual_seconds, 6)
        info.router["actual_ops"] = info.actual_ops
        if not info.degraded:
            info.epoch_index = self._epoch.index
        self.commits += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.observe("router.actual_s", info.actual_seconds)
        return info

    def _invalidate_plan(self) -> None:
        """Drop the plan (structure changed); re-analyzed lazily."""
        self.plan = None
        if self.cache is not None:
            self.cache.note_invalidation()
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    def _arc_slots(self, u: int, v: int) -> np.ndarray:
        g = self.graph
        lo, hi = int(g.indptr[u]), int(g.indptr[u + 1])
        return lo + np.flatnonzero(g.indices[lo:hi] == v)

    def update_edge(self, u: int, v: int, w: float) -> int:
        """Set arc/edge ``(u, v)`` to weight ``w``; returns pairs improved.

        A one-element batch through the commit machinery: decreases fold
        into the published epoch (``O(n²)``), increases trigger a full
        warm re-solve on the unchanged plan (returns ``-1``), and a
        brand-new edge folds exactly but invalidates the plan
        (re-analyzed lazily on the next full solve).
        """
        if w < 0 and not self.directed:
            raise ValueError("negative undirected edges form negative 2-cycles")
        with self._write_lock:
            if self._epoch is None:
                self.solve()
            buf = UpdateBuffer(self.graph.n, directed=self.directed)
            buf.update(u, v, w)
            info = self._commit_buffer(buf)
        if info.decision in ("fold", "noop"):
            return info.improved
        return -1

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> Epoch:
        """The published epoch (solving on first access)."""
        ep = self._epoch
        if ep is None:
            self.solve()
            ep = self._epoch
        return ep

    @property
    def dist(self) -> np.ndarray:
        """Published distance matrix (read-only; solving on first access)."""
        return self.epoch.dist

    @property
    def last_result(self):
        """The most recent solve's :class:`~repro.core.result.APSPResult`.

        ``None`` before the first solve; fold commits publish epochs
        without producing a result, so after a fold this still points at
        the last full solve.
        """
        return self._result

    @property
    def stale(self) -> bool:
        """Whether the session's weights moved past the published epoch.

        True only after a degraded commit: the graph carries new weights
        but the last re-solve failed, so readers still get the previous
        epoch's answers.
        """
        ep = self._epoch
        return ep is not None and (
            ep.weights_digest != weights_sha(self.graph.weights)
        )

    def distance(self, i: int, j: int) -> float:
        """Current shortest distance between ``i`` and ``j``.

        Reads one published epoch snapshot — safe to call from reader
        threads while another thread commits.
        """
        return float(self.epoch.dist[i, j])

    def stats(self) -> dict[str, Any]:
        """Lifecycle counters plus plan/cache/epoch identity."""
        ep = self._epoch
        out = {
            "method": self.method,
            "solves": self.solves,
            "fast_updates": self.fast_updates,
            "recomputes": self.recomputes,
            "commits": self.commits,
            "plan_id": self.plan.plan_id if self.plan is not None else None,
            "pooled": self._pool is not None,
            "epoch": ep.index if ep is not None else None,
            "weights_digest": ep.weights_digest if ep is not None else None,
            "stale": self.stale,
            "router": self.router.stats(),
        }
        if self.cache is not None:
            out["cache"] = self.cache.stats()
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the persistent worker pool (idempotent)."""
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "APSPSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

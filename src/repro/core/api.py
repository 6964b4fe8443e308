"""Unified APSP front-end.

``apsp(graph, method=...)`` dispatches to every algorithm in the library
with consistent validation and a consistent :class:`~repro.core.result.APSPResult`.
``method="auto"`` engages the resilient fallback chain of
:mod:`repro.resilience.fallback`: solve, certificate-verify, escalate.
"""

from __future__ import annotations

from typing import Callable

from repro.core.result import APSPResult
from repro.graphs.graph import Graph
from repro.graphs.validation import validate_weights
from repro.obs import coerce_tracer, use_tracer, write_chrome_trace
from repro.resilience.budget import BudgetTracker, SolveBudget
from repro.resilience.errors import NegativeCycleError, ReproError, UnknownMethodError


def _superfw(graph: Graph, **kw) -> APSPResult:
    from repro.core.superfw import superfw

    return superfw(graph, **kw)


def _superbfs(graph: Graph, **kw) -> APSPResult:
    from repro.core.superfw import superfw

    kw.setdefault("ordering", "bfs")
    return superfw(graph, **kw)


def _parallel_superfw(graph: Graph, **kw) -> APSPResult:
    from repro.core.parallel_superfw import parallel_superfw

    return parallel_superfw(graph, **kw)


def _dense(graph: Graph, **kw) -> APSPResult:
    from repro.core.dense_fw import floyd_warshall

    return floyd_warshall(graph, **kw)


def _blocked(graph: Graph, **kw) -> APSPResult:
    from repro.core.blocked_fw import blocked_floyd_warshall

    return blocked_floyd_warshall(graph, **kw)


def _dijkstra(graph: Graph, **kw) -> APSPResult:
    from repro.core.dijkstra import apsp_dijkstra

    return apsp_dijkstra(graph, **kw)


def _boost(graph: Graph, **kw) -> APSPResult:
    from repro.core.dijkstra import apsp_dijkstra_adjlist

    return apsp_dijkstra_adjlist(graph, **kw)


def _delta(graph: Graph, **kw) -> APSPResult:
    from repro.core.delta_stepping import apsp_delta_stepping

    return apsp_delta_stepping(graph, **kw)


def _johnson(graph: Graph, **kw) -> APSPResult:
    from repro.core.johnson import johnson_apsp

    return johnson_apsp(graph, **kw)


def _path_doubling(graph: Graph, **kw) -> APSPResult:
    from repro.core.path_doubling import path_doubling

    return path_doubling(graph, **kw)


def _treewidth(graph: Graph, **kw) -> APSPResult:
    from repro.plan.session import APSPSession
    from repro.serve.factor import factor_pass_ops
    from repro.serve.hub_index import HubLabelIndex

    # Hub labels from the min-plus factor (the paper's ref [33] on its
    # supernodes): no n x n array exists before ``dist`` itself.
    with APSPSession(graph, **kw) as session:
        index = HubLabelIndex.build(session)
    plan = session.plan
    ascending, descending = factor_pass_ops(plan.structure, plan.snode_rows)
    sizes = index.label_sizes()
    return APSPResult(
        dist=index.all_pairs(),
        method="treewidth",
        meta={
            "factor_ops": int(ascending.sum() + descending.sum()),
            "label_entries": index.entries,
            "width": int(sizes.max()) if sizes.size else 0,
        },
    )


def _auto(graph: Graph, **kw) -> APSPResult:
    from repro.resilience.fallback import solve_with_fallback

    return solve_with_fallback(graph, **kw)


_METHODS: dict[str, Callable[..., APSPResult]] = {
    "auto": _auto,
    "superfw": _superfw,
    "superbfs": _superbfs,
    "parallel-superfw": _parallel_superfw,
    "dense-fw": _dense,
    "blocked-fw": _blocked,
    "dijkstra": _dijkstra,
    "boost-dijkstra": _boost,
    "delta-stepping": _delta,
    "johnson": _johnson,
    "path-doubling": _path_doubling,
    "treewidth": _treewidth,
}


def available_methods() -> list[str]:
    """Names accepted by :func:`apsp`."""
    return sorted(_METHODS)


#: Methods that accept a ``budget=`` keyword natively.
_BUDGET_AWARE = frozenset(
    {"auto", "superfw", "superbfs", "parallel-superfw", "blocked-fw",
     "dense-fw", "dijkstra", "boost-dijkstra", "delta-stepping"}
)

#: FW-family methods for which up-front negative-cycle detection makes
#: sense (the Dijkstra family rejects negative weights outright and
#: Johnson runs its own Bellman-Ford phase).
_FW_FAMILY = frozenset(
    {"auto", "superfw", "superbfs", "parallel-superfw", "blocked-fw",
     "dense-fw", "path-doubling", "treewidth"}
)

#: Methods that can consume a precomputed :class:`repro.plan.plan.Plan`.
_PLAN_AWARE = frozenset(
    {"auto", "superfw", "superbfs", "parallel-superfw", "blocked-fw",
     "treewidth"}
)

#: Methods whose plan can carry a reduction trail (``reduce=True``).
#: ``blocked-fw`` consumes a plan but tiles the full matrix, so it is
#: deliberately excluded.
_REDUCE_AWARE = frozenset(
    {"auto", "superfw", "superbfs", "parallel-superfw"}
)


def apsp(
    graph: Graph,
    method: str = "superfw",
    *,
    detect_negative_cycles: bool = False,
    budget: SolveBudget | BudgetTracker | float | None = None,
    plan=None,
    reduce: bool | str | None = None,
    trace=None,
    **options,
) -> APSPResult:
    """Compute all-pairs shortest paths.

    Parameters
    ----------
    graph:
        Undirected :class:`~repro.graphs.graph.Graph` or directed
        :class:`~repro.graphs.digraph.DiGraph`.
    method:
        One of :func:`available_methods`; defaults to the paper's
        supernodal Floyd-Warshall.  ``"auto"`` runs the verified fallback
        chain (superfw → dijkstra → blocked → dense) and records the
        attempt trail in ``result.meta["attempts"]``.
    detect_negative_cycles:
        Run Bellman-Ford negative-cycle detection up front (FW-family
        methods only) and raise
        :class:`~repro.resilience.errors.NegativeCycleError` with a
        witness vertex instead of returning meaningless distances.
    budget:
        A :class:`~repro.resilience.budget.SolveBudget` (or bare seconds)
        enforced at supernode / kernel-step granularity; exceeding it
        raises :class:`~repro.resilience.errors.BudgetExceededError`
        carrying partial-progress statistics.
    plan:
        A precomputed :class:`~repro.plan.plan.Plan` (from
        :func:`repro.plan.analyze` or a
        :class:`~repro.plan.cache.PlanCache`) reused instead of running
        ordering + symbolic analysis inline.  The plan is structurally
        verified against ``graph`` — weight changes pass, edge changes
        raise :class:`~repro.resilience.errors.PlanMismatchError`.  For
        repeated solves prefer :class:`~repro.plan.session.APSPSession`.
    reduce:
        ``True`` runs the exact weight-independent reductions of
        :mod:`repro.ordering.reduce` during analysis (degree-0/1/2,
        twin, simplicial elimination): the sweep solves the contracted
        graph and the eliminated vertices are reconstituted exactly —
        the returned distances are bit-identical to an unreduced solve.
        ``"auto"`` keeps the trail only when it pays off, exactly as
        :func:`repro.plan.analyze` decides it.  Plan-consuming
        SuperFW-family methods only; see ``docs/ORDERING.md``.
    trace:
        Structured-tracing control (see :mod:`repro.obs` and
        ``docs/OBSERVABILITY.md``).  ``True`` records spans into a fresh
        :class:`~repro.obs.Tracer` (returned in ``meta["tracer"]``); a
        string/path additionally writes a Chrome ``trace_event`` JSON
        there (loadable in Perfetto); an existing tracer instance is
        used as-is.  A metrics + span-stats summary lands in
        ``meta["obs"]``.  Tracing never changes the distances — traced
        and untraced runs are bit-identical.
    options:
        Forwarded to the selected backend (e.g. ``leaf_size=...`` for
        SuperFW planning, ``delta=...`` for Δ-stepping,
        ``num_workers=...`` / ``backend="process"`` for the parallel
        variant).
        The supervised process backend adds ``supervise=`` (a
        :class:`~repro.resilience.supervisor.SupervisorPolicy`, dict,
        seconds, or ``False``), ``checkpoint=`` (a snapshot directory or
        :class:`~repro.resilience.checkpoint.CheckpointManager`), and
        ``resume=True`` to restart a killed solve from its last
        completed elimination level.

    Returns
    -------
    APSPResult
        Distances in the original numbering plus timings/op counts.
    """
    try:
        backend = _METHODS[method]
    except KeyError:
        raise UnknownMethodError(
            f"unknown method {method!r}; choose from {available_methods()}"
        ) from None
    from repro.graphs.digraph import DiGraph

    if not isinstance(graph, (Graph, DiGraph)) and hasattr(graph, "tocoo"):
        # Accept scipy sparse matrices directly (symmetrized by min).
        graph = Graph.from_scipy(graph)
    validate_weights(graph)
    if detect_negative_cycles:
        if method not in _FW_FAMILY:
            raise ReproError(
                f"detect_negative_cycles is only meaningful for FW-family "
                f"methods, not {method!r} (which rejects negative weights "
                f"up front)"
            )
        from repro.graphs.validation import negative_cycle_witness

        witness = negative_cycle_witness(graph)
        if witness is not None:
            raise NegativeCycleError(witness=witness)
    if budget is not None:
        if method not in _BUDGET_AWARE:
            raise ReproError(
                f"budget enforcement is not supported for method {method!r}; "
                f"supported: {sorted(_BUDGET_AWARE)}"
            )
        options["budget"] = budget
    if plan is not None:
        if method not in _PLAN_AWARE:
            raise ReproError(
                f"method {method!r} cannot consume a precomputed plan; "
                f"supported: {sorted(_PLAN_AWARE)}"
            )
        options["plan"] = plan
    if reduce is not None:
        if method not in _REDUCE_AWARE:
            raise ReproError(
                f"method {method!r} cannot solve through a reduction "
                f"trail; supported: {sorted(_REDUCE_AWARE)}"
            )
        options["reduce"] = reduce if reduce == "auto" else bool(reduce)
    from repro.resilience.checkpoint import weights_sha

    tracer, trace_path = coerce_tracer(trace)
    if not tracer.enabled:
        result = backend(graph, **options)
        # Tag every result with the digest of the weights it was solved
        # at — the identity the epoch-based session write path and the
        # checkpoint layer key on (backends that already computed it
        # keep their own value).
        result.meta.setdefault("weights_digest", weights_sha(graph.weights))
        return result
    with use_tracer(tracer):
        with tracer.span("apsp", method=method, n=graph.n):
            result = backend(graph, **options)
    result.meta.setdefault("weights_digest", weights_sha(graph.weights))
    # Refresh the snapshot after the outer span closed so it covers the
    # whole call (a backend-written meta["obs"] would miss plan spans
    # recorded before it ran, and the apsp span itself).
    result.meta["obs"] = tracer.meta_snapshot()
    result.meta["tracer"] = tracer
    if trace_path is not None:
        write_chrome_trace(
            tracer, trace_path, metadata={"method": method, "n": int(graph.n)}
        )
        result.meta["trace_path"] = trace_path
    return result

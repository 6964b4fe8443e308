"""The first-class analyze phase: weight-independent solve plans.

Sparse direct solvers get their production wins from the
*analyze-once, factorize-many* idiom: ordering + symbolic analysis
depend only on the nonzero pattern and are reused across every numeric
factorization.  SuperFW inherits the same split — :func:`analyze`
produces a :class:`Plan` holding the fill-reducing ordering, the
supernodal block structure, the elimination-tree schedule, and the
symmetrized pattern, none of which reference edge weights.  Every
structure-consuming backend (:func:`repro.core.superfw.superfw`,
:func:`repro.core.parallel_superfw.parallel_superfw`, the factor-built
hub labels of :mod:`repro.serve.factor`, the blocked-FW tiling, and the
``method="auto"`` fallback chain) consumes a plan instead of rebuilding
this state inline.

Plans serialize (:meth:`Plan.save` / :meth:`Plan.load`, npz + JSON
header) for warm starts across processes, and are cached by structure
key in :class:`repro.plan.cache.PlanCache`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.obs import get_tracer, phase
from repro.ordering.amd import amd_ordering
from repro.ordering.base import Ordering
from repro.ordering.bfs import bfs_ordering
from repro.ordering.nested_dissection import NDResult, nested_dissection
from repro.ordering.reduce import ReductionTrail, auto_keeps, build_trail
from repro.plan.keys import (
    PLAN_PARAM_DEFAULTS,
    canonical_param,
    plan_id as _plan_id,
    structure_hash,
)
from repro.plan.router import sweep_seconds
from repro.resilience.errors import PlanMismatchError
from repro.symbolic.etree import elimination_tree, postorder, relabel_etree
from repro.symbolic.fill import symbolic_cholesky
from repro.symbolic.structure import (
    SupernodalStructure,
    superfw_snode_ops,
    supernodal_analysis,
)
from repro.symbolic.supernodes import amalgamate, find_supernodes

#: On-disk format version of :meth:`Plan.save`.  v2 added the reduction
#: trail, the original vertex count, and the ordering score report; v3
#: stores one neighbor list per trail event, read off the symmetric
#: pattern; v4 plans are postordered and relaxed along etree chains
#: only (same arrays, different ordering and supernodes); v5 plans
#: amalgamate supernodes by the sweep's cost law and store the column
#: etree and column counts the hub labels are built from.  v1 files load
#: with ``trail=None``, v2 files with an undirected trail load as they
#: are, and a v2 directed trail (built on arc directions) raises
#: ``ValueError``.  Every older file still solves exactly, and its hub
#: labels follow its supernodes;
#: :class:`~repro.plan.cache.PlanCache` re-analyzes it instead.
PLAN_FORMAT_VERSION = 5


@dataclass
class TilingPlan:
    """Block layout of a dense FW sweep — the blocked baseline's "plan".

    Trivial next to a supernodal plan, but sharing the analyze/solve
    split keeps every backend on the same lifecycle: compute the layout
    once, reuse it across solves.
    """

    n: int
    block_size: int
    bounds: np.ndarray  # (nb + 1,) block boundaries, bounds[0] == 0

    @property
    def nb(self) -> int:
        """Number of blocks per dimension."""
        return self.bounds.shape[0] - 1


def make_tiling(n: int, block_size: int = 64) -> TilingPlan:
    """Build the block boundaries for an ``n x n`` blocked FW sweep."""
    if block_size < 1:
        raise ValueError("block_size must be positive")
    bounds = np.arange(0, n, block_size, dtype=np.int64)
    bounds = np.append(bounds, np.int64(n))
    return TilingPlan(n=n, block_size=block_size, bounds=bounds)


@dataclass
class Plan:
    """Weight-independent product of the analyze phase.

    Holds everything the numeric sweeps need that does *not* depend on
    edge weights: the postordered ordering, the supernodal structure
    (which embeds the elimination-tree task schedule via
    :meth:`~repro.symbolic.structure.SupernodalStructure.level_order`),
    the symmetrized unit-weight ``pattern`` the symbolic analysis ran
    on, and the per-supernode vertex-level fill rows the multifrontal
    schedule assembles fronts from.  Deliberately does **not** hold the
    input graph — a plan must never keep weight arrays (or whole
    graphs) alive.

    Attributes
    ----------
    key:
        Structure digest (:func:`repro.plan.keys.structure_hash`) of the
        graph the plan was built for.  Weight changes preserve it; edge
        additions/removals change it.
    params:
        Analyze parameters the plan was built with (ordering method,
        leaf size, seed, reduce).
    pattern:
        Unit-weight undirected pattern the symbolic analysis ran on —
        the graph's own structure, or ``A + Aᵀ`` for a directed input
        (stored once here so directed re-solves never recompute the
        symmetrization).
    snode_rows:
        Per-supernode sorted vertex-level fill rows strictly above the
        supernode — the multifrontal frontal-matrix index sets, computed
        once during analysis.
    etree, col_counts:
        The postordered column etree (parent array) and the factor's
        column counts.  The hub labels follow this etree's fundamental
        supernodes, not the amalgamated blocks of ``structure``
        (:mod:`repro.serve.hub_index`).  ``None`` on a plan loaded from
        a file older than v5, whose labels follow its supernodes.
    nd:
        Separator tree when nested dissection produced the ordering
        (diagnostic only; not serialized).
    trail:
        Weight-independent :class:`~repro.ordering.reduce.ReductionTrail`
        when the plan was analyzed with ``reduce=True`` and at least one
        rule fired.  When present, ``ordering``/``structure``/``pattern``
        describe the *reduced* graph; solvers replay the trail on the
        solve-time weights and unreduce the result back to all ``n``
        original vertices.
    score_report:
        JSON-able record of the ``ordering="auto"`` candidate scoring
        (fill, modeled solve ops/seconds per candidate, and the pick).
    format_version:
        :data:`PLAN_FORMAT_VERSION` of a fresh plan, or the version of
        the file a loaded plan came from.
    """

    key: str
    ordering: Ordering
    structure: SupernodalStructure
    pattern: Graph
    params: dict[str, Any] = field(default_factory=dict)
    directed: bool = False
    snode_rows: list[np.ndarray] = field(default_factory=list)
    nd: NDResult | None = None
    timings: dict[str, float] = field(default_factory=dict)
    trail: ReductionTrail | None = None
    score_report: dict[str, Any] | None = None
    format_version: int = PLAN_FORMAT_VERSION
    etree: np.ndarray | None = None
    col_counts: np.ndarray | None = None
    # The hub-label structure of this plan (:mod:`repro.serve.hub_index`),
    # a function of the plan alone, built by the first index.
    _labels: Any = field(init=False, default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of *original* vertices (before any reduction)."""
        return self.trail.n if self.trail is not None else self.structure.n

    @property
    def n_reduced(self) -> int:
        """Vertices the numeric sweep actually eliminates (``≤ n``)."""
        return self.structure.n

    @property
    def plan_id(self) -> str:
        """Short stable identifier: structure key + analyze parameters."""
        return _plan_id(self.key, self.params)

    def preprocessing_seconds(self) -> float:
        """Ordering + symbolic analysis wall-clock."""
        return sum(self.timings.values())

    def describe(self) -> dict[str, Any]:
        """Summary combining ordering and structure statistics."""
        out = dict(self.structure.stats())
        out["ordering"] = self.ordering.method
        out["plan_id"] = self.plan_id
        out["directed"] = self.directed
        if self.nd is not None:
            out["top_separator"] = self.nd.top_separator_size
        if self.trail is not None:
            out["reduction"] = self.trail.stats()
        if self.score_report is not None:
            out["ordering_score"] = self.score_report
        return out

    # ------------------------------------------------------------------
    def matches(self, graph: Graph | DiGraph) -> bool:
        """True when ``graph`` has exactly the structure this plan indexes.

        Weight-independent by construction: a reweighted graph matches;
        a graph with one extra edge does not.
        """
        if graph.n != self.n or isinstance(graph, DiGraph) != self.directed:
            return False
        return structure_hash(graph) == self.key

    def ensure(self, graph: Graph | DiGraph) -> None:
        """Raise :class:`PlanMismatchError` unless :meth:`matches`."""
        if not self.matches(graph):
            raise PlanMismatchError(
                "plan was built for a different graph structure "
                f"(plan {self.plan_id} indexes n={self.n}, "
                f"directed={self.directed})"
            )

    def tiling(self, block_size: int = 64) -> TilingPlan:
        """Blocked-FW tiling over this plan's vertex set."""
        return make_tiling(self.n, block_size)

    # ------------------------------------------------------------------
    # Serialization: npz payload + JSON header.
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the plan (npz arrays + JSON header) for warm starts.

        Everything weight-independent round-trips; the diagnostic
        separator tree (``nd``) and timings do not.  The header keeps
        ``format_version``, so a plan loaded from an older file is saved
        as that older version and a :class:`PlanCache` still evicts it.
        """
        import json

        st = self.structure
        fill_concat, fill_ptr = _pack_ragged(st.fill_block_rows)
        rows_concat, rows_ptr = _pack_ragged(self.snode_rows)
        header = {
            "format": "repro-plan",
            "version": self.format_version,
            "key": self.key,
            "plan_id": self.plan_id,
            "n": self.n,
            "n_reduced": self.n_reduced,
            "directed": self.directed,
            "ordering_method": self.ordering.method,
            "params": {
                k: v for k, v in self.params.items() if _is_jsonable(v)
            },
            "nnz_factor": int(st.nnz_factor),
            "fill_in": int(st.fill_in),
        }
        if self.score_report is not None:
            header["score_report"] = self.score_report
        arrays = {
            "perm": self.ordering.perm,
            "snode_ptr": st.snode_ptr,
            "snode_of": st.snode_of,
            "parent": st.parent,
            "levels": st.levels,
            "fill_concat": fill_concat,
            "fill_ptr": fill_ptr,
            "rows_concat": rows_concat,
            "rows_ptr": rows_ptr,
            "pattern_indptr": self.pattern.indptr,
            "pattern_indices": self.pattern.indices,
        }
        if self.trail is not None:
            arrays.update(self.trail.to_arrays())
        if self.etree is not None:
            arrays.update(etree=self.etree, col_counts=self.col_counts)
        with open(path, "wb") as fh:
            np.savez(
                fh,
                header=np.frombuffer(
                    json.dumps(header).encode(), dtype=np.uint8
                ),
                **arrays,
            )

    @classmethod
    def load(cls, path) -> "Plan":
        """Load a plan previously written by :meth:`save`."""
        import json

        with np.load(path) as data:
            header = json.loads(bytes(data["header"]).decode())
            if header.get("format") != "repro-plan":
                raise ValueError(f"{path} is not a repro plan file")
            if header["version"] > PLAN_FORMAT_VERSION:
                raise ValueError(
                    f"plan format v{header['version']} is newer than this "
                    f"library understands (v{PLAN_FORMAT_VERSION})"
                )
            parent = data["parent"]
            ns = parent.shape[0]
            children: list[list[int]] = [[] for _ in range(ns)]
            for s in range(ns):
                if parent[s] >= 0:
                    children[int(parent[s])].append(s)
            structure = SupernodalStructure(
                snode_ptr=data["snode_ptr"],
                snode_of=data["snode_of"],
                parent=parent,
                children=children,
                levels=data["levels"],
                fill_block_rows=_unpack_ragged(
                    data["fill_concat"], data["fill_ptr"]
                ),
                nnz_factor=int(header["nnz_factor"]),
                fill_in=int(header["fill_in"]),
            )
            pattern = Graph(
                data["pattern_indptr"],
                data["pattern_indices"],
                np.ones(data["pattern_indices"].shape[0]),
            )
            trail = None
            if "trail_verts" in data.files:
                trail = ReductionTrail.from_arrays(
                    data,
                    n=int(header["n"]),
                    directed=bool(header["directed"]),
                )
            return cls(
                key=header["key"],
                ordering=Ordering(
                    perm=data["perm"], method=header["ordering_method"]
                ),
                structure=structure,
                pattern=pattern,
                params=dict(header.get("params", {})),
                directed=bool(header["directed"]),
                snode_rows=_unpack_ragged(data["rows_concat"], data["rows_ptr"]),
                trail=trail,
                score_report=header.get("score_report"),
                format_version=int(header["version"]),
                etree=data["etree"] if "etree" in data.files else None,
                col_counts=(data["col_counts"] if "col_counts" in data.files
                            else None),
            )


def _pack_ragged(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate a ragged int-array list into (concat, ptr) CSR form."""
    ptr = np.zeros(len(arrays) + 1, dtype=np.int64)
    if arrays:
        np.cumsum([a.shape[0] for a in arrays], out=ptr[1:])
        concat = (
            np.concatenate(arrays).astype(np.int64)
            if ptr[-1]
            else np.empty(0, dtype=np.int64)
        )
    else:
        concat = np.empty(0, dtype=np.int64)
    return concat, ptr


def _unpack_ragged(concat: np.ndarray, ptr: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`_pack_ragged`."""
    return [
        np.asarray(concat[ptr[i] : ptr[i + 1]], dtype=np.int64)
        for i in range(ptr.shape[0] - 1)
    ]


def _is_jsonable(value: Any) -> bool:
    return isinstance(value, (str, int, float, bool, type(None)))


def _unit_pattern(graph: Graph | DiGraph) -> Graph:
    """Unit-weight undirected pattern of ``graph`` (``A + Aᵀ`` when directed).

    Ordering and symbolic analysis consume only this — the coarsener
    already replaces edge weights with unit multiplicities, so the
    resulting plan is provably identical to analysis on the weighted
    graph while referencing no weight array.
    """
    if isinstance(graph, DiGraph):
        return graph.symmetrized()
    return Graph(
        graph.indptr.copy(),
        graph.indices.copy(),
        np.ones(graph.indices.shape[0]),
    )


def _symbolic_bundle(pattern: Graph, ordering: Ordering):
    """Postorder one candidate ordering and run its symbolic analysis.

    The etree is computed once, relabelled by its postorder and handed
    to the symbolic factorization, and the ordering is composed with the
    same postorder: an equivalent ordering with the same fill, under
    which every subtree is one column range.  The fundamental supernodes
    are then amalgamated by the sweep's cost law
    (:func:`~repro.symbolic.supernodes.amalgamate`, priced by
    :func:`~repro.plan.router.sweep_seconds` at the router's default
    rate).  Returns that ordering, the supernodal structure, the
    per-supernode vertex-level fill rows (union over member columns,
    restricted above the supernode — the multifrontal frontal index
    sets), derived while the symbolic factor is in hand so no backend
    ever recomputes them, and the postordered column etree and column
    counts the hub labels are built from.
    """
    parent = elimination_tree(pattern, ordering.perm)
    order = postorder(parent)
    ordering = Ordering(
        perm=ordering.perm[order], method=ordering.method, stats=ordering.stats
    )
    sym = symbolic_cholesky(
        pattern, ordering.perm, parent=relabel_etree(parent, order)
    )
    blocks = amalgamate(sym, find_supernodes(sym), sweep_seconds)
    structure, snode_rows = supernodal_analysis(sym, blocks)
    return ordering, structure, snode_rows, sym.parent, sym.col_counts


def _modeled_cost(
    structure: SupernodalStructure, snode_rows: list[np.ndarray]
) -> dict[str, Any]:
    """Score one candidate ordering from its symbolic structure alone.

    Prices the candidate exactly as the cost-model router prices a warm
    solve: the exact SuperFW op count
    (:func:`~repro.symbolic.structure.superfw_snode_ops`) through
    :func:`~repro.plan.router.sweep_seconds` at the router's default
    rate, so ``ordering="auto"`` picks the candidate the router would
    predict to solve fastest.
    """
    widths = np.diff(structure.snode_ptr)
    fronts = widths + np.array([r.shape[0] for r in snode_rows], dtype=np.int64)
    ops = float(superfw_snode_ops(structure).sum())
    return {
        "fill_in": int(structure.fill_in),
        "nnz_factor": int(structure.nnz_factor),
        "supernodes": int(structure.ns),
        "max_block": int(widths.max()) if widths.size else 0,
        "max_front": int(fronts.max()) if fronts.size else 0,
        "modeled_ops": ops,
        "modeled_seconds": sweep_seconds(ops, structure.ns),
    }


def analyze(
    graph: Graph | DiGraph,
    *,
    ordering: str | Ordering = "nd",
    leaf_size: int = 32,
    seed: int = 0,
    reduce: bool | str = False,
) -> Plan:
    """Run the weight-independent analyze phase: ordering + symbolics.

    Parameters
    ----------
    graph:
        Undirected :class:`~repro.graphs.graph.Graph`, or a
        :class:`~repro.graphs.digraph.DiGraph` — in which case analysis
        runs on the symmetrized pattern ``A + Aᵀ`` (the
        LU-with-symmetric-pattern idiom), which is stored on the plan
        and reused by every subsequent directed solve.
    ordering:
        ``"nd"`` (nested dissection — SuperFW proper), ``"amd"``
        (approximate minimum degree), ``"auto"`` (score ND and AMD from
        their symbolic structures, keep the modeled-cheaper one — the
        report lands in ``Plan.score_report``), ``"bfs"`` (the SuperBFS
        baseline), ``"natural"`` (identity), or a prebuilt
        :class:`~repro.ordering.base.Ordering` — *any* permutation
        works, since the etree's parents are higher-numbered by
        construction.  Every ordering is composed with its etree
        postorder (same fill, every subtree one column range), so
        ``Plan.ordering`` is that postordered permutation while
        ``Plan.params["ordering"]`` keeps the caller's tag.
    leaf_size:
        ND recursion cut-off.
    seed:
        Seeds the ND partitioner.
    reduce:
        Run the exact weight-independent reductions of
        :mod:`repro.ordering.reduce` first, ordering only the reduced
        graph; the recorded trail is stored on the plan and replayed by
        every solve.  A directed graph is reduced on its symmetric
        pattern, like the ordering.  ``"auto"`` builds the trail and
        keeps it only when :func:`~repro.ordering.reduce.auto_keeps`
        says the reduced plan pays off (most vertices eliminated,
        shallow trail trees); otherwise the plan is the unreduced one.

    Returns
    -------
    Plan
        Reusable across every solve on a graph with this structure.
    """
    timings: dict[str, float] = {}
    nd: NDResult | None = None
    directed = isinstance(graph, DiGraph)
    tracer = get_tracer()
    with phase(timings, "plan-key", n=graph.n):
        key = structure_hash(graph)
    if isinstance(reduce, str) and reduce != "auto":
        raise ValueError(f"reduce must be True, False or 'auto', not {reduce!r}")
    trail: ReductionTrail | None = None
    pattern = None
    # A DiGraph is symmetrized once: the trail reads that pattern, and it
    # is the analyzed pattern when no trail is kept.
    unit = None
    if reduce:
        with phase(
            timings, "reduce", "ordering.reduce.analyze", n=graph.n
        ) as red_span:
            if directed:
                unit = _unit_pattern(graph)
            trail = build_trail(graph, pattern=unit)
            if reduce == "auto":
                kept = auto_keeps(trail)
                red_span.set(auto_kept=kept)
            else:
                kept = trail.n_eliminated > 0
            if not kept:
                trail = None
            else:
                pattern = trail.reduced_pattern(graph)
    if pattern is None:
        pattern = unit if unit is not None else _unit_pattern(graph)
    score_report: dict[str, Any] | None = None
    candidates: list[tuple[str, Ordering, NDResult | None]] = []
    with phase(
        timings,
        "ordering",
        method=ordering if isinstance(ordering, str) else ordering.method,
    ):
        if isinstance(ordering, Ordering):
            if np.asarray(ordering.perm).shape[0] != pattern.n:
                raise ValueError(
                    f"prebuilt ordering permutes "
                    f"{np.asarray(ordering.perm).shape[0]} vertices but the "
                    f"analyzed pattern has {pattern.n} (was the plan "
                    "requested with reduce=True?)"
                )
            ordr = ordering
        elif ordering == "nd":
            nd = nested_dissection(pattern, leaf_size=leaf_size, seed=seed)
            ordr = nd.ordering
        elif ordering == "bfs":
            ordr = bfs_ordering(pattern)
        elif ordering == "amd":
            ordr = amd_ordering(pattern, seed=seed)
        elif ordering == "natural":
            ordr = Ordering(perm=np.arange(pattern.n), method="natural")
        elif ordering == "auto":
            nd_cand = nested_dissection(pattern, leaf_size=leaf_size, seed=seed)
            candidates = [
                ("nd", nd_cand.ordering, nd_cand),
                ("amd", amd_ordering(pattern, seed=seed), None),
            ]
            ordr = nd_cand.ordering  # provisional until scoring below
        else:
            raise ValueError(f"unknown ordering {ordering!r}")
    with phase(timings, "symbolic", n=pattern.n):
        if candidates:
            scored = [
                (
                    name,
                    cand,
                    cand_nd,
                    bundle := _symbolic_bundle(pattern, cand),
                    _modeled_cost(*bundle[1:3]),
                )
                for name, cand, cand_nd in candidates
            ]
            # min() is stable and "nd" is listed first, so ties keep ND.
            name, _, nd, bundle, _cost = min(
                scored, key=lambda t: t[4]["modeled_seconds"]
            )
            ordr, structure, snode_rows, etree, col_counts = bundle
            score_report = {
                "picked": name,
                "candidates": {t[0]: t[4] for t in scored},
            }
            if tracer.enabled:
                tracer.metric_inc(f"ordering.auto.pick.{name}")
        else:
            ordr, structure, snode_rows, etree, col_counts = (
                _symbolic_bundle(pattern, ordr)
            )
    params = {
        key: canonical_param(key, value)
        for key, value in (
            ("ordering", ordering),
            ("leaf_size", leaf_size),
            ("seed", seed),
            ("reduce", reduce),
        )
    }
    return Plan(
        key=key,
        ordering=ordr,
        structure=structure,
        pattern=pattern,
        params=params,
        directed=directed,
        snode_rows=snode_rows,
        nd=nd,
        timings=timings,
        trail=trail,
        score_report=score_report,
        etree=etree,
        col_counts=col_counts,
    )


def ensure_plan(
    plan: Plan | None,
    graph: Graph | DiGraph,
    **plan_options,
) -> tuple[Plan, bool]:
    """Resolve the (plan, reused) pair every backend starts from.

    ``plan=None`` analyzes inline (cold) and returns ``reused=False``;
    a provided plan is structurally verified against ``graph`` and
    returned with ``reused=True`` — weight changes pass, edge changes
    raise :class:`~repro.resilience.errors.PlanMismatchError`.

    ``trust_plan=True`` (keyword) skips the structural hash check — the
    session front-end uses it because ``Graph.with_weights`` preserves
    structure by construction, making the warm-solve path zero
    preprocessing *and* zero re-hashing.

    Beside a plan, ``plan_options`` must agree with it: a name
    :func:`analyze` does not take raises :class:`TypeError` (as
    ``analyze`` would), and a value other than the one recorded in
    ``plan.params`` raises :class:`ValueError` naming it — a prebuilt
    :class:`~repro.ordering.base.Ordering` compares by the
    ``method:digest`` tag ``analyze`` records.  Equal values pass.
    """
    trust = bool(plan_options.pop("trust_plan", False))
    if plan is None:
        return analyze(graph, **plan_options), False
    for key, value in plan_options.items():
        if key not in PLAN_PARAM_DEFAULTS:
            raise TypeError(
                f"ensure_plan() got an unexpected keyword argument {key!r}"
            )
        recorded = plan.params.get(key, PLAN_PARAM_DEFAULTS[key])
        if canonical_param(key, value) != recorded:
            raise ValueError(
                f"{key}={value!r} disagrees with the supplied plan, which "
                f"was analyzed with {key}={recorded!r}; drop the option or "
                "re-analyze"
            )
    if not trust:
        plan.ensure(graph)
    return plan, True

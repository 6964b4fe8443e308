"""Structure-keyed plan cache with optional on-disk warm starts.

The repeated-solve traffic pattern the ROADMAP targets is *same
structure, new weights* — exactly what a plan survives.  The cache key
is the weight-independent structure digest plus the analyze parameters,
so reweighting a graph hits the cache while adding an edge misses it.

An optional directory turns the cache into a cross-process warm start:
every analyzed plan is persisted as ``<plan_id>.plan.npz`` and a fresh
process (or the CLI's ``--plan-cache DIR``) reloads it instead of
re-running nested dissection + symbolic analysis.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.obs import get_tracer
from repro.plan.keys import plan_cache_key, structure_hash
from repro.plan.plan import PLAN_FORMAT_VERSION, Plan, analyze


class PlanCache:
    """LRU cache of :class:`~repro.plan.plan.Plan` objects.

    Parameters
    ----------
    directory:
        Optional directory for persisted plans.  Created on first write.
        Plans found on disk count as ``disk_hits`` and are promoted into
        memory.
    max_entries:
        In-memory LRU capacity (the disk tier is unbounded).
    """

    def __init__(self, directory: str | None = None, max_entries: int = 128):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.directory = directory
        self.max_entries = max_entries
        self._plans: OrderedDict[str, Plan] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self.invalidations = 0
        self.stale_evictions = 0

    # ------------------------------------------------------------------
    @staticmethod
    def key_for(graph: Graph | DiGraph, **params: Any) -> str:
        """Composite cache key of ``graph`` under ``params``.

        Weight changes never alter it; structural edits always do.
        """
        return plan_cache_key(structure_hash(graph), params)

    def _path_for(self, key: str) -> str | None:
        if self.directory is None:
            return None
        # Filename is the digest of the composite key — the same value
        # Plan.plan_id carries, since both hash structure key + params.
        import hashlib

        name = hashlib.sha256(key.encode()).hexdigest()[:16]
        return os.path.join(self.directory, f"{name}.plan.npz")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Plan | None:
        """Plan for ``key`` from memory or disk, else ``None``."""
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.hits += 1
            get_tracer().metric_inc("plan_cache.hits")
            return plan
        path = self._path_for(key)
        if path is not None and os.path.exists(path):
            try:
                plan = Plan.load(path)
            except ValueError:
                plan = None
            if plan is None or plan.format_version < PLAN_FORMAT_VERSION:
                # Unreadable, newer- or older-format file under this key:
                # treat it as a miss and evict it, so the fresh analyze
                # below can overwrite it instead of shadowing the slot
                # forever.  An older plan would solve exactly, but it
                # predates the postordered layout the sweep is fast on.
                os.remove(path)
                self.stale_evictions += 1
                get_tracer().metric_inc("plan_cache.stale_evictions")
                return None
            self._store(key, plan)
            self.disk_hits += 1
            get_tracer().metric_inc("plan_cache.disk_hits")
            return plan
        return None

    def put(self, plan: Plan, *, key: str | None = None) -> str:
        """Insert ``plan`` (memory + disk tier when configured)."""
        key = key if key is not None else plan_cache_key(plan.key, plan.params)
        self._store(key, plan)
        path = self._path_for(key)
        if path is not None and not os.path.exists(path):
            os.makedirs(self.directory, exist_ok=True)
            plan.save(path)
        return key

    def _store(self, key: str, plan: Plan) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.max_entries:
            self._plans.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    def get_or_analyze(self, graph: Graph | DiGraph, **params: Any) -> Plan:
        """Cached plan for ``graph`` under ``params``, analyzing on miss.

        A prebuilt :class:`~repro.ordering.base.Ordering` instance is a
        legal ``ordering=`` value — it is keyed by its permutation
        digest, so two different custom orderings never collide.
        """
        key = self.key_for(graph, **params)
        plan = self.get(key)
        if plan is not None:
            return plan
        self.misses += 1
        get_tracer().metric_inc("plan_cache.misses")
        plan = analyze(graph, **params)
        self.put(plan, key=key)
        return plan

    def note_invalidation(self) -> None:
        """Record that a consumer's plan went structurally stale.

        Called by the session write path when an edge insert drops its
        plan: the cached entry for the *old* structure stays valid (the
        structure key still indexes it), but the counter — and the
        ``plan_cache.invalidations`` metric — make re-analysis traffic
        from structural churn visible next to hits and misses.
        """
        self.invalidations += 1
        get_tracer().metric_inc("plan_cache.invalidations")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, key: str) -> bool:
        return key in self._plans

    def stats(self) -> dict[str, Any]:
        """Hit/miss counters plus the current footprint."""
        return {
            "entries": len(self._plans),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "stale_evictions": self.stale_evictions,
            "directory": self.directory,
        }

"""`DistanceServer`: the batched, cached, epoch-aware query front-end.

Composes the read side of the stack the same way
:class:`~repro.plan.session.APSPSession` composes the write side:

* **index lifecycle** — a :class:`~repro.serve.hub_index.HubLabelIndex`
  is built lazily — from the factor while the session has no published
  epoch, from the epoch once one publishes — and swapped atomically
  (whole-object assignment) whenever a newer epoch publishes, so
  readers racing a rebuild see either the old consistent index or the
  new one, never a half-built label set;
* **result cache** — a bounded LRU over ``(src, dst)`` pairs (mirroring
  :class:`~repro.plan.cache.PlanCache`) that is invalidated wholesale on
  epoch publication: a ``commit()`` on the underlying session makes the
  next query rebuild the index and start a fresh cache;
* **batching** — :meth:`DistanceServer.query_many` evaluates whole
  batches in a few numpy passes, and :meth:`DistanceServer.aquery` gives
  asyncio callers transparent micro-batching: concurrent awaiters are
  coalesced for ``batch_window`` seconds (or until ``max_batch``
  requests) and answered by one vectorized evaluation;
* **typed failure modes** — ``strict=True`` turns unreachable pairs into
  :class:`~repro.resilience.errors.UnreachablePairError`, and
  ``stale_policy="raise"`` turns serving from a stale epoch (a degraded
  commit) into :class:`~repro.resilience.errors.StaleEpochError`;
  the default policies answer with ``inf`` / stale-but-consistent
  distances and count the occurrences instead.

Every batch is reported to the ambient tracer as a ``serve-batch`` span
with ``serve.*`` counters, so the observability layer sees the read path
with the same fidelity as solves and commits.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.obs import get_tracer
from repro.plan.session import APSPSession
from repro.resilience.errors import StaleEpochError, UnreachablePairError
from repro.serve.hub_index import HubLabelIndex, _vertex_ids

#: Default bound on the (src, dst) -> distance result cache.
DEFAULT_RESULT_CACHE = 65536


class DistanceServer:
    """Serve point-to-point distances from a hub-label index.

    Parameters
    ----------
    source:
        A :class:`Graph` / :class:`DiGraph` (the server creates and owns
        an internal :class:`APSPSession`) or an existing session to
        serve from — in which case commits on that session are picked up
        automatically on the next query.
    method, cache, detect_negative_cycles, session_options:
        Forwarded to the internal session when ``source`` is a graph
        (``cache`` is a :class:`~repro.plan.cache.PlanCache`, so server
        rebuilds after structural commits hit warm plans).  The session
        analyzes with ``reduce="auto"`` unless told otherwise: the
        reduction is kept when it eliminates most of the graph in
        shallow trees (:func:`~repro.ordering.reduce.auto_keeps`), as on
        road networks, directed or not, and dropped on meshes, power
        grids and long paths.
    result_cache_size:
        LRU bound for the scalar-query result cache (0 disables it).
    strict:
        Raise :class:`UnreachablePairError` instead of returning ``inf``.
    stale_policy:
        ``"serve"`` (default) answers from a stale epoch after a
        degraded commit and counts it; ``"raise"`` raises
        :class:`StaleEpochError`.
    batch_window:
        Seconds :meth:`aquery` waits to coalesce concurrent requests.
    max_batch:
        Pending-request count that triggers an immediate flush.
    """

    def __init__(
        self,
        source: Graph | DiGraph | APSPSession,
        *,
        method: str = "superfw",
        cache=None,
        detect_negative_cycles: bool = False,
        result_cache_size: int = DEFAULT_RESULT_CACHE,
        strict: bool = False,
        stale_policy: str = "serve",
        batch_window: float = 0.002,
        max_batch: int = 4096,
        **session_options: Any,
    ) -> None:
        if stale_policy not in ("serve", "raise"):
            raise ValueError(
                f"stale_policy must be 'serve' or 'raise', not {stale_policy!r}"
            )
        if isinstance(source, APSPSession):
            self.session = source
            self._owns_session = False
        else:
            # A reduced plan serves from the factor with chain-suffix
            # labels; analyze keeps the trail only when it pays off.
            session_options.setdefault("reduce", "auto")
            self.session = APSPSession(
                source,
                method=method,
                cache=cache,
                detect_negative_cycles=detect_negative_cycles,
                **session_options,
            )
            self._owns_session = True
        self.strict = bool(strict)
        self.stale_policy = stale_policy
        self.batch_window = float(batch_window)
        self.max_batch = int(max_batch)
        self.result_cache_size = int(result_cache_size)
        self._index: HubLabelIndex | None = None
        # The session graph the index was built from: a factor-built
        # index is current only while the session still holds it.
        self._built_from: Graph | DiGraph | None = None
        self._cache: OrderedDict[tuple[int, int], float] = OrderedDict()
        self._build_lock = threading.Lock()
        self._closed = False
        # asyncio micro-batching state (single-loop usage).
        self._pending: list[tuple[int, int, asyncio.Future]] = []
        self._flush_handle: asyncio.TimerHandle | None = None
        # Lifecycle counters (mirrored into serve.* tracer metrics).
        self.queries = 0
        self.batches = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0
        self.rebuilds = 0
        self.stale_serves = 0
        self.unreachable = 0
        self.cross_shard = 0

    # ------------------------------------------------------------------
    # Index lifecycle.
    # ------------------------------------------------------------------
    @property
    def index(self) -> HubLabelIndex:
        """The current label index (building on first access)."""
        return self.refresh()

    def refresh(self) -> HubLabelIndex:
        """Return an index matching the session's current state.

        Cheap when current (one epoch-index comparison).  Before the
        session publishes its first epoch the index is built from the
        factor (:meth:`HubLabelIndex.build`) and stays current while the
        session's graph is the one it was built from.  Once an epoch
        publishes — a lazy ``session.dist`` read, ``solve()`` or
        ``commit()`` — and whenever a newer one follows, the index is
        rebuilt from it and swapped in atomically, and the result cache
        is cleared: cached distances belong to the state they were
        answered from.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        idx = self._index
        if idx is not None and self._current(idx):
            return idx
        with self._build_lock:
            idx = self._index
            if idx is None or not self._current(idx):
                graph = self.session.graph
                fresh = HubLabelIndex.build(self.session)
                if idx is not None:
                    self.rebuilds += 1
                    tracer = get_tracer()
                    if tracer.enabled:
                        tracer.metric_inc("serve.index_rebuilds")
                self._cache.clear()
                self._built_from = graph
                self._index = fresh  # atomic swap, like the epoch publish
            return self._index

    def _current(self, idx: HubLabelIndex) -> bool:
        """Whether ``idx`` still describes the session's published state."""
        epoch = self.session._epoch
        if epoch is None:
            return idx.source == "factor" and self._built_from is self.session.graph
        return idx.epoch_index == epoch.index

    def _check_stale(self) -> None:
        if not self.session.stale:
            return
        epoch = self.session._epoch
        if self.stale_policy == "raise":
            raise StaleEpochError(
                "refusing to serve from a stale epoch",
                epoch_index=epoch.index if epoch is not None else None,
                weights_digest=(
                    epoch.weights_digest if epoch is not None else None
                ),
            )
        self.stale_serves += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metric_inc("serve.stale_serves")

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def query(self, i: int, j: int) -> float:
        """One point-to-point distance (original vertex ids).

        Served from the LRU result cache when possible; a miss costs one
        label intersection.  ``inf`` for unreachable pairs unless the
        server is ``strict``.  A non-whole id raises ``ValueError``.
        """
        idx = self.refresh()
        self._check_stale()
        key = tuple(_vertex_ids((i, j)).tolist())
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            self.queries += 1
            return cached
        self.cache_misses += 1
        value = idx.query_one(*key)
        self.queries += 1
        if not np.isfinite(value):
            self.unreachable += 1
            if self.strict:
                raise UnreachablePairError(source=key[0], target=key[1])
        if self.result_cache_size > 0:
            self._cache[key] = value
            while len(self._cache) > self.result_cache_size:
                self._cache.popitem(last=False)
                self.cache_evictions += 1
        return value

    def query_many(self, sources, targets) -> np.ndarray:
        """Vectorized distances for pairs ``(sources[k], targets[k])``.

        One ``serve-batch`` span per call, recording how many candidate
        sums the label join evaluated; throughput scales with
        batch size (this is the path the ``bench_query`` gate measures).
        Bypasses the scalar result cache — a vectorized pass is already
        cheaper than n dict probes.  A non-whole id raises ``ValueError``.
        """
        idx = self.refresh()
        self._check_stale()
        sources = _vertex_ids(sources)
        targets = _vertex_ids(targets)
        tracer = get_tracer()
        with tracer.span("serve-batch", size=int(sources.shape[0])) as span:
            out, candidates = idx._evaluate(sources, targets)
            span.set(candidates=candidates)
        self.queries += int(sources.shape[0])
        self.batches += 1
        n_cross = int(np.sum(idx.comp[sources] != idx.comp[targets]))
        n_inf = int(np.sum(~np.isfinite(out)))
        self.cross_shard += n_cross
        self.unreachable += n_inf
        if tracer.enabled:
            tracer.metric_inc("serve.queries", sources.shape[0])
            tracer.metric_inc("serve.batches")
            if n_inf:
                tracer.metric_inc("serve.unreachable", n_inf)
        if self.strict and n_inf:
            bad = int(np.flatnonzero(~np.isfinite(out))[0])
            raise UnreachablePairError(
                source=int(sources[bad]), target=int(targets[bad])
            )
        return out

    # ------------------------------------------------------------------
    # Async request loop: transparent micro-batching.
    # ------------------------------------------------------------------
    async def aquery(self, i: int, j: int) -> float:
        """Awaitable point query; concurrent awaiters share one batch.

        Requests enqueue onto the running loop; a flush fires after
        ``batch_window`` seconds or as soon as ``max_batch`` requests
        are pending, evaluates the whole batch via :meth:`query_many`,
        and resolves every future.  ``gather``-ing thousands of
        ``aquery`` calls therefore costs a handful of vectorized batch
        evaluations, not thousands of scalar lookups.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        i, j = _vertex_ids((i, j)).tolist()
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((i, j, future))
        if len(self._pending) >= self.max_batch:
            self._flush_pending()
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(
                self.batch_window, self._flush_pending
            )
        return await future

    def _flush_pending(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        pending, self._pending = self._pending, []
        if not pending:
            return
        sources = np.fromiter(
            (p[0] for p in pending), dtype=np.int64, count=len(pending)
        )
        targets = np.fromiter(
            (p[1] for p in pending), dtype=np.int64, count=len(pending)
        )
        try:
            values = self.query_many(sources, targets)
        except Exception as exc:  # noqa: BLE001 - forwarded to awaiters
            for _, _, future in pending:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, _, future), value in zip(pending, values):
            if not future.done():
                future.set_result(float(value))

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Serving counters plus index/shard identity."""
        idx = self._index
        out: dict[str, Any] = {
            "queries": self.queries,
            "batches": self.batches,
            "rebuilds": self.rebuilds,
            "stale_serves": self.stale_serves,
            "unreachable": self.unreachable,
            "cross_shard": self.cross_shard,
            "result_cache": {
                "entries": len(self._cache),
                "capacity": self.result_cache_size,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
            },
        }
        if idx is not None:
            sizes = idx.label_sizes()
            out["index"] = {
                "source": idx.source,
                "trail_events": idx.trail_events,
                "epoch": idx.epoch_index,
                "plan_id": idx.plan_id,
                "entries": idx.entries,
                "shards": idx.ncomp,
                "mean_width": float(sizes.mean()) if idx.n else 0.0,
                "max_width": int(sizes.max()) if idx.n else 0,
                "memory_bytes": idx.memory_bytes(),
                "build_seconds": idx.build_seconds,
            }
        return out

    def close(self) -> None:
        """Fail pending async requests and release owned resources."""
        if self._closed:
            return
        self._closed = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        pending, self._pending = self._pending, []
        for _, _, future in pending:
            if not future.done():
                future.set_exception(RuntimeError("server is closed"))
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "DistanceServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

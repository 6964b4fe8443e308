"""Published epochs and update buffers: the session's write-path state.

The epoch model gives :class:`~repro.plan.session.APSPSession` its
read/write split.  Writers stage reweights into an :class:`UpdateBuffer`
(one per tick; last-write-wins per arc, net no-ops dropped) and a
``commit()`` materializes them off to the side — rank-k fold or warm
re-solve, the router's choice — before *publishing* the new state as an
:class:`Epoch` with one atomic attribute swap.  Readers never lock: they
snapshot the published epoch and serve from its immutable distance
matrix, so a reader racing a commit sees either the old epoch or the new
one, never a half-folded matrix.

An epoch is identified by ``(index, weights_digest)``: the digest is the
SHA of the arc-weight array the matrix was solved/folded at, which is
exactly the key the checkpoint layer uses
(:func:`repro.resilience.checkpoint.weights_sha`), so interrupted warm
re-solves resume against the epoch they were computing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.resilience.checkpoint import weights_sha


class Epoch:
    """One immutable published state: ``(weights_digest, dist)`` plus meta.

    The distance matrix is exposed as a read-only view — epochs are
    copy-on-write, so a fold never mutates the matrix a concurrent
    reader is serving from.  ``meta`` records how the epoch was produced
    (``"solve"`` or ``"fold"``, plus the router record for commits).
    """

    __slots__ = ("index", "weights_digest", "dist", "meta", "_dist_digest")

    def __init__(self, index: int, weights_digest: str, dist: np.ndarray,
                 meta: dict[str, Any] | None = None) -> None:
        view = dist.view()
        view.setflags(write=False)
        self.index = int(index)
        self.weights_digest = weights_digest
        self.dist = view
        self.meta = dict(meta or {})
        self._dist_digest: str | None = None

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.dist.shape[0]

    def dist_digest(self) -> str:
        """SHA of the published matrix (cached; torn-read detector)."""
        if self._dist_digest is None:
            self._dist_digest = weights_sha(self.dist)
        return self._dist_digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Epoch(index={self.index}, n={self.n}, "
            f"weights_digest={self.weights_digest!r})"
        )


class UpdateBuffer:
    """Coalesces one tick's reweights per arc (last-write-wins).

    Stages ``(u, v, w)`` updates without touching the session's graph or
    published epoch; :meth:`repro.plan.session.APSPSession.commit`
    resolves the staged values against the current weights — dropping
    net no-ops — and applies the survivors in one batch.  For undirected
    graphs ``(u, v)`` and ``(v, u)`` address the same edge.
    """

    def __init__(self, n: int, *, directed: bool = False) -> None:
        self.n = int(n)
        self.directed = bool(directed)
        self._pending: dict[tuple[int, int], float] = {}
        self.staged = 0  # total update() calls, pre-coalescing

    def _key(self, u: int, v: int) -> tuple[int, int]:
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            raise ValueError(f"invalid edge endpoints ({u}, {v})")
        if not self.directed and u > v:
            u, v = v, u
        return (u, v)

    def update(self, u: int, v: int, w: float) -> None:
        """Stage arc/edge ``(u, v) -> w`` (overwrites earlier stages)."""
        w = float(w)
        if not np.isfinite(w):
            raise ValueError("staged weights must be finite")
        if w < 0 and not self.directed:
            raise ValueError("negative undirected edges form negative 2-cycles")
        self._pending[self._key(int(u), int(v))] = w
        self.staged += 1

    def extend(self, updates) -> None:
        """Stage an iterable of ``(u, v, w)`` triples."""
        for u, v, w in updates:
            self.update(u, v, w)

    def items(self) -> list[tuple[int, int, float]]:
        """The coalesced updates, in first-staged order."""
        return [(u, v, w) for (u, v), w in self._pending.items()]

    def clear(self) -> None:
        """Drop everything staged."""
        self._pending.clear()
        self.staged = 0

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)


@dataclass
class CommitInfo:
    """What one ``commit()`` did, for callers and benchmarks.

    ``decision`` is the router's choice (``"fold"``, ``"resolve"``,
    ``"reanalyze"``, or ``"noop"`` when coalescing left nothing to do);
    ``predicted_seconds`` / ``actual_seconds`` expose the cost model's
    forecast against reality, and ``actual_ops`` the semiring ops the
    commit ran (the sweep's ``OpCounter`` total for a re-solve, the
    rank-k shape count for a fold, 0 when nothing ran or the re-solve
    failed); ``degraded`` flags a failed re-solve that
    left the previous epoch published (see
    :class:`~repro.resilience.errors.StaleEpochWarning`).
    """

    decision: str
    epoch_index: int
    k: int = 0
    coalesced: int = 0
    inserts: int = 0
    increases: int = 0
    decreases: int = 0
    improved: int = 0
    predicted_seconds: float = 0.0
    actual_seconds: float = 0.0
    actual_ops: float = 0.0
    degraded: bool = False
    error: str | None = None
    router: dict[str, Any] = field(default_factory=dict)

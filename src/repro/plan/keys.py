"""Canonical cache keys for the analyze/solve split.

A plan is reusable across every solve whose graph has the *same
structure* — the sparse direct-solver contract, where ordering and
symbolic analysis depend only on the nonzero pattern.  The structure key
therefore hashes ``(kind, n, sorted arc endpoints)`` and deliberately
excludes the weights: reweighting a graph keeps its key, while adding or
removing a single edge changes it.

The full cache key additionally folds in the analyze parameters
(ordering method, leaf size, seed, reduce), because two
plans over the same pattern with different orderings are different
objects.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

#: Analyze parameters that shape the plan (and therefore key it).
PLAN_PARAM_DEFAULTS: dict[str, Any] = {
    "ordering": "nd",
    "leaf_size": 32,
    "seed": 0,
    "reduce": False,
}


def canonical_arcs(graph) -> tuple[np.ndarray, np.ndarray]:
    """Stored arcs as ``(rows, cols)`` in a storage-order-independent sort.

    Two CSR graphs with the same arc set hash identically even when their
    per-row neighbor lists are permuted.
    """
    rows = np.repeat(
        np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr)
    )
    cols = np.asarray(graph.indices, dtype=np.int64)
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def structure_hash(graph) -> str:
    """Weight-independent digest of a graph's structure.

    Covers directedness, ``n``, and the sorted arc endpoint pairs —
    nothing else.  ``graph.with_weights(...)`` never changes the hash;
    any edge addition/removal does.
    """
    from repro.graphs.digraph import DiGraph

    kind = b"digraph" if isinstance(graph, DiGraph) else b"graph"
    rows, cols = canonical_arcs(graph)
    h = hashlib.sha256()
    h.update(kind)
    h.update(np.int64(graph.n).tobytes())
    h.update(rows.tobytes())
    h.update(cols.tobytes())
    return h.hexdigest()


def canonical_param(key: str, value: Any) -> Any:
    """An analyze parameter in the form ``Plan.params`` records it.

    A prebuilt :class:`~repro.ordering.base.Ordering` becomes
    ``"method:digest"`` (a prefix of its permutation's sha256), so two
    distinct custom orderings never collide, params stay
    JSON-serializable and plan ids survive save/load round trips.
    ``reduce`` is ``"auto"`` or a bool.
    """
    if key == "ordering" and not isinstance(value, str):
        perm = np.asarray(value.perm, dtype=np.int64)
        return f"{value.method}:{hashlib.sha256(perm.tobytes()).hexdigest()[:16]}"
    if key == "reduce":
        return value if value == "auto" else bool(value)
    return value


def params_digest(params: dict[str, Any]) -> str:
    """Digest of the analyze parameters, defaults filled in."""
    full = dict(PLAN_PARAM_DEFAULTS)
    full.update({k: canonical_param(k, v) for k, v in params.items()
                 if k in PLAN_PARAM_DEFAULTS})
    payload = json.dumps(full, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def plan_cache_key(structure_key: str, params: dict[str, Any]) -> str:
    """Composite cache key: structure digest + analyze-parameter digest."""
    return f"{structure_key}:{params_digest(params)}"


def plan_id(structure_key: str, params: dict[str, Any]) -> str:
    """Short stable identifier of a plan (used in ``meta`` and filenames)."""
    return hashlib.sha256(
        plan_cache_key(structure_key, params).encode()
    ).hexdigest()[:16]

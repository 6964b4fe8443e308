"""Distributed-memory communication-volume models.

The paper's keywords include *communication-avoiding algorithms* and its
related-work section points at distributed sparse factorization (Gupta et
al., Sao et al. [35]) where etree parallelism "reduces communication and
data distribution".  No cluster is available here, so this module models
per-processor communication volume analytically, using the standard
owner-computes / panel-broadcast accounting:

* **BlockedFW** on a ``√p x √p`` grid: every outer iteration broadcasts
  the pivot block row and column, ``Θ(n/√p)`` words to each processor,
  for ``n`` pivots — the well-known ``2 n²/√p`` dense bound (Solomonik et
  al. for distributed APSP).
* **SuperFW** with subtree-to-subcube mapping: a supernode at etree depth
  ``d`` (from the root) is owned by a subcube of ``p/2^d`` processors;
  eliminations inside a single-processor subtree are communication-free,
  and a communicated elimination closes its ``b_k x b_k`` diagonal block
  and broadcasts its two panels across its subcube grid
  (``2·(|R_k| + b_k)·b_k`` words) — so a plan that is one block prices
  exactly as BlockedFW.

The models quantify the paper's qualitative claim: the same separator
structure that cuts computation also cuts communication, because only the
top ``log₂ p`` levels of the etree ever cross processor boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.symbolic.structure import (
    SupernodalStructure,
    panel_rows,
    superfw_snode_ops,
)


def blockedfw_comm_volume(n: int, p: int) -> float:
    """Per-processor words received by dense BlockedFW on ``p`` processors."""
    if p <= 1:
        return 0.0
    return 2.0 * n * n / np.sqrt(p)


def _depths_from_root(structure: SupernodalStructure) -> np.ndarray:
    """Depth of each supernode measured from its root (root = 0)."""
    depth = np.zeros(structure.ns, dtype=np.int64)
    # Parents have smaller depth; walk top-down in reverse topological order.
    for s in range(structure.ns - 1, -1, -1):
        for c in structure.children[s]:
            depth[c] = depth[s] + 1
    return depth


def _panel_words(
    structure: SupernodalStructure, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Subcube size ``p_k`` and per-processor panel words of each supernode.

    A supernode at depth ``d`` owns ``p_k = max(1, p / 2^d)`` processors.
    Its dense diagonal closure moves ``2 b_k² / √p_k`` words per
    processor (the BlockedFW bound on a ``b_k``-vertex block), and its
    ``|R_k| x b_k`` column and row panels ``2 |R_k| b_k / √p_k``.
    """
    procs = np.maximum(p / 2.0 ** _depths_from_root(structure), 1.0)
    widths = np.diff(structure.snode_ptr)
    words = 2.0 * (panel_rows(structure) + widths) * widths / np.sqrt(procs)
    return procs, words


def superfw_comm_volume(structure: SupernodalStructure, p: int) -> float:
    """Per-processor words for SuperFW under subtree-to-subcube mapping.

    Each supernode broadcasts its panels across its subcube (see
    :func:`_panel_words`); supernodes whose subcube is a single
    processor cost zero.
    """
    if p <= 1:
        return 0.0
    procs, words = _panel_words(structure, p)
    return float(words[procs > 1.0].sum())


def communication_table(
    structure: SupernodalStructure,
    n: int,
    procs: list[int],
) -> list[dict]:
    """Blocked-vs-SuperFW communication volumes across processor counts."""
    rows = []
    for p in procs:
        blocked = blockedfw_comm_volume(n, p)
        super_ = superfw_comm_volume(structure, p)
        rows.append(
            {
                "p": p,
                "blockedfw_words": blocked,
                "superfw_words": super_,
                "reduction_x": blocked / super_ if super_ > 0 else float("inf"),
            }
        )
    return rows


# ----------------------------------------------------------------------
# α-β distributed execution-time model
# ----------------------------------------------------------------------
#: Typical commodity-cluster constants: per-message latency (s) and
#: per-word transfer time (s/word, 8-byte words at ~10 GB/s effective).
DEFAULT_ALPHA = 2.0e-6
DEFAULT_BETA = 8.0e-10


def superfw_distributed_time(
    structure: SupernodalStructure,
    p: int,
    *,
    seconds_per_op: float,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
) -> float:
    """Estimated distributed SuperFW time under the α-β model.

    Computation is divided over the supernode's subcube (communication-
    free subtrees run concurrently across their disjoint subcubes);
    every communicated elimination adds a panel broadcast of
    ``log₂(p_k)`` message rounds plus its per-processor volume.
    """
    procs, words = _panel_words(structure, p)
    compute = superfw_snode_ops(structure) * seconds_per_op / procs
    comm = np.where(procs > 1.0, alpha * np.log2(procs) + beta * words, 0.0)
    # Within a level, same-depth subtrees overlap; the level's time is
    # the max over its members, then levels serialize (barriers).
    level_time = np.zeros(int(structure.levels.max()) + 1 if structure.ns else 0)
    np.maximum.at(level_time, structure.levels, compute + comm)
    return float(level_time.sum())


def blockedfw_distributed_time(
    n: int,
    p: int,
    *,
    seconds_per_op: float,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
) -> float:
    """Estimated distributed dense BlockedFW time under the α-β model.

    ``n`` pivot steps, each: a row+column broadcast over the processor
    grid (``log₂ p`` rounds, ``2n/√p`` words per processor) plus the
    rank-1 trailing update (``2n²/p`` operations).
    """
    if p <= 1:
        return 2.0 * n**3 * seconds_per_op
    per_step = (
        alpha * np.log2(p)
        + beta * 2.0 * n / np.sqrt(p)
        + 2.0 * n * n * seconds_per_op / p
    )
    return float(n * per_step)

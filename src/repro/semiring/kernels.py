"""The three blocked Floyd-Warshall kernels (paper §2.3, Fig. 2b).

Every FW variant in this library — dense blocked, BFS-supernodal, and
SuperFW — is assembled from exactly these primitives:

* :func:`diag_update` — classic FW on a diagonal block ``A(k,k)``;
* :func:`panel_update_rows` / :func:`panel_update_cols` — the PanelUpdate,
  a min-plus multiply of a block row/column with the diagonal block;
* :func:`outer_update` — the MinPlus outer product (Schur-complement
  analogue) updating the trailing matrix.

All kernels mutate their first argument in place and return the number of
scalar semiring operations performed, which feeds the operation counters of
:class:`repro.obs.metrics.OpCounter`.

Min-plus calls route through the ambient
:class:`~repro.semiring.engine.SemiringGemmEngine`, which supplies the
blocked min-plus kernel and pooled scratch buffers.  The PanelUpdates run fully
in place — no defensive copy of the panel.  That is legal because every
caller closes the diagonal block (DiagUpdate) *before* any panel update:
with ``diag`` transitively closed, a relaxation routed through an
already-updated panel row costs ``diag[i,t] + (diag[t,s] + panel[s,j]) ≥
diag[i,s] + panel[s,j]`` — it is dominated by a direct candidate, so the
in-place sweep returns exactly ``panel ⊕ diag ⊗ panel``.  Generic
(non-min-plus) semirings keep the copy, since that argument needs ⊕ = min.
"""

from __future__ import annotations

import numpy as np

from repro.resilience.faults import kernel_site
from repro.semiring.base import MIN_PLUS, Semiring
from repro.semiring.engine import get_engine
from repro.semiring.minplus import semiring_gemm


def floyd_warshall_kernel(
    dist: np.ndarray, semiring: Semiring = MIN_PLUS
) -> int:
    """In-place dense Floyd-Warshall sweep over a square block.

    This is the scalar Algorithm 1 of the paper with the two inner loops
    vectorized: iteration ``k`` performs the rank-1 update
    ``D ← D ⊕ D[:,k] ⊗ D[k,:]``.  The broadcast temporary comes from the
    engine's workspace pool (one buffer per thread, reused across calls),
    and validation plus the fault-injection site run once per call —
    nothing but the two fused array ops lives inside the ``k`` loop.

    Returns the scalar semiring op count (``2 b^3`` for a ``b x b`` block).
    """
    try:
        b, b2 = dist.shape
    except ValueError:
        raise ValueError("diagonal block must be square") from None
    if b != b2:
        raise ValueError("diagonal block must be square")
    if semiring is MIN_PLUS:
        tmp = get_engine().workspace.buffer("diag", (b, b), dist.dtype)
        for k in range(b):
            np.add(dist[:, k : k + 1], dist[k, :], out=tmp)
            np.minimum(dist, tmp, out=dist)
    else:
        for k in range(b):
            semiring.add(
                dist,
                semiring.mul(dist[:, k : k + 1], dist[k, :]),
                out=dist,
            )
    kernel_site("diag", dist)
    return 2 * b * b * b


def diag_update(dist: np.ndarray, semiring: Semiring = MIN_PLUS) -> int:
    """Alias of :func:`floyd_warshall_kernel` named after the paper's step."""
    return floyd_warshall_kernel(dist, semiring)


def panel_update_rows(
    panel: np.ndarray, diag: np.ndarray, semiring: Semiring = MIN_PLUS
) -> int:
    """PanelUpdate for a block *row*: ``A(k,:) ← A(k,:) ⊕ A(k,k) ⊗ A(k,:)``.

    ``panel`` has shape ``(b, c)`` and is updated in place; ``diag`` is the
    already diag-updated ``(b, b)`` block multiplying from the *left*.
    ``diag`` **must be transitively closed** (every caller runs DiagUpdate
    first) — that is what makes the copy-free in-place product exact; see
    the module docstring.
    """
    b = diag.shape[0]
    if diag.shape != (b, b) or panel.shape[0] != b:
        raise ValueError("diag/panel shapes incompatible")
    if semiring is MIN_PLUS:
        get_engine().gemm(diag, panel, out=panel, accumulate=True)
    else:
        semiring_gemm(semiring, diag, panel.copy(), out=panel, accumulate=True)
    kernel_site("panel_rows", panel)
    return 2 * b * b * panel.shape[1]


def panel_update_cols(
    panel: np.ndarray, diag: np.ndarray, semiring: Semiring = MIN_PLUS
) -> int:
    """PanelUpdate for a block *column*: ``A(:,k) ← A(:,k) ⊕ A(:,k) ⊗ A(k,k)``.

    ``panel`` has shape ``(r, b)`` and is updated in place; ``diag``
    multiplies from the *right* and must be transitively closed (see
    :func:`panel_update_rows`).
    """
    b = diag.shape[0]
    if diag.shape != (b, b) or panel.shape[1] != b:
        raise ValueError("diag/panel shapes incompatible")
    if semiring is MIN_PLUS:
        get_engine().gemm(panel, diag, out=panel, accumulate=True)
    else:
        semiring_gemm(semiring, panel.copy(), diag, out=panel, accumulate=True)
    kernel_site("panel_cols", panel)
    return 2 * b * b * panel.shape[0]


def outer_update(
    trailing: np.ndarray,
    col_panel: np.ndarray,
    row_panel: np.ndarray,
    semiring: Semiring = MIN_PLUS,
    symmetric: bool = False,
) -> int:
    """MinPlus outer product: ``A(i,j) ← A(i,j) ⊕ A(i,k) ⊗ A(k,j)``.

    ``trailing`` is an ``(r, c)`` region updated in place; ``col_panel`` is
    ``(r, b)`` (the ``A(i,k)`` operand) and ``row_panel`` is ``(b, c)``.
    This is the semiring analogue of the Schur-complement (GEMM) update in
    Cholesky factorization and dominates the total work (paper §4.1) —
    the engine's kernel is sized for exactly this call.  ``symmetric``
    (min-plus only) promises ``row_panel = col_panelᵀ`` and a symmetric
    ``trailing``, bit for bit, and runs the engine's staircase product
    (:func:`~repro.semiring.engine.minplus_symmetric_kernel`).  The
    returned count is the full product's either way, as the op law
    charges it.
    """
    r, b = col_panel.shape
    if row_panel.shape[0] != b or trailing.shape != (r, row_panel.shape[1]):
        raise ValueError("outer-update shapes incompatible")
    if semiring is MIN_PLUS:
        get_engine().gemm(
            col_panel, row_panel, out=trailing, accumulate=True,
            symmetric=symmetric,
        )
    else:
        semiring_gemm(
            semiring, col_panel, row_panel, out=trailing, accumulate=True
        )
    kernel_site("outer", trailing)
    return 2 * r * b * row_panel.shape[1]

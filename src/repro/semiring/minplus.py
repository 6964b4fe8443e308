"""Min-plus (and generic semiring) matrix-multiply entry points.

This is the ``SemiringGemm`` of the paper (§5.1.2): the single dense kernel
shared by BlockedFW, SuperBFS and SuperFW.  The paper implements it in
C/OpenMP with SIMD; here the within-kernel vectorization comes from NumPy.

:func:`minplus_gemm` is the functional form of the ambient
:class:`~repro.semiring.engine.SemiringGemmEngine`, so every min-plus
product runs the same shape-picked kernel and lands in the same
counters.  :func:`semiring_gemm` keeps a rank-1 "broadcast ⊕" loop for
the other semirings: each step is a fully vectorized ``(m, n)`` update,
so the Python-level cost is ``O(k)`` and the product performs exactly
``2·m·n·k`` scalar semiring ops.
"""

from __future__ import annotations

import numpy as np

from repro.semiring.base import MIN_PLUS, Semiring
from repro.semiring.engine import get_engine, result_dtype  # noqa: F401 (re-exported)


def minplus_gemm_flops(m: int, n: int, k: int) -> int:
    """Scalar semiring operations in an ``m x k`` by ``k x n`` product.

    Each output element takes ``k`` ⊗ (adds) and ``k`` ⊕ (mins), matching
    the ``2mnk`` convention the paper uses to quote Gflop/s rates.
    """
    return 2 * m * n * k


def minplus_gemm(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    accumulate: bool = False,
) -> np.ndarray:
    """Min-plus product ``C[i,j] = min_k (A[i,k] + B[k,j])``.

    Parameters
    ----------
    a, b:
        Operands with shapes ``(m, k)`` and ``(k, n)``.  Entries may be
        ``+inf`` ("no path").
    out:
        Optional destination of shape ``(m, n)``.
    accumulate:
        When true, existing values of ``out`` participate in the minimum
        (``C ← C ⊕ A ⊗ B``); otherwise ``out`` is overwritten.

    Returns
    -------
    numpy.ndarray
        The (m, n) result; identical to ``out`` when one was provided.

    Notes
    -----
    With NumPy's IEEE semantics ``inf + x == inf``, so structural zeros
    propagate correctly without masking — except for ``inf + (-inf)`` which
    cannot appear because edge weights are finite and ``-inf`` is never
    stored in a min-plus matrix.
    """
    return get_engine().gemm(a, b, out=out, accumulate=accumulate)


def semiring_gemm(
    semiring: Semiring,
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    accumulate: bool = False,
) -> np.ndarray:
    """Generic semiring product ``C = (⊕ over k) A[i,k] ⊗ B[k,j]``.

    Same contract as :func:`minplus_gemm` but parameterized by an arbitrary
    :class:`~repro.semiring.base.Semiring`.  The min-plus fast path is
    dispatched automatically.
    """
    if semiring is MIN_PLUS:
        return minplus_gemm(a, b, out=out, accumulate=accumulate)
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    m, kdim = a.shape
    n = b.shape[1]
    if out is None:
        out = semiring.zeros((m, n))
    elif not accumulate:
        out.fill(semiring.zero)
    for t in range(kdim):
        semiring.add(out, semiring.mul(a[:, t : t + 1], b[t, :]), out=out)
    return out


def minplus_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference min-plus product via an explicit 3-D broadcast.

    Quadratic-memory oracle used only by tests to validate
    :func:`minplus_gemm`; never call it on large operands.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[0]:
        raise ValueError("incompatible shapes")
    if a.shape[1] == 0:
        return np.full((a.shape[0], b.shape[1]), np.inf)
    return np.min(a[:, :, None] + b[None, :, :], axis=1)


def minplus_closure_scalarcount(n: int) -> int:
    """Semiring ops of a dense n-vertex Floyd-Warshall sweep (``2n^3``)."""
    return 2 * n * n * n

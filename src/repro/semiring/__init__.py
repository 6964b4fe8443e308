"""Semiring algebra substrate.

All path problems in this library are expressed over a closed semiring
``(S, ⊕, ⊗, 0̄, 1̄)``.  APSP uses the *tropical* (min-plus) semiring where
``⊕ = min``, ``⊗ = +``, ``0̄ = +inf`` and ``1̄ = 0``; the infinite entries of
the distance matrix play the role of structural zeros in sparse numerical
linear algebra (paper §2).
"""

from repro.semiring.base import (
    BOOLEAN,
    MAX_PLUS,
    MIN_MAX,
    MIN_PLUS,
    Semiring,
)
from repro.semiring.minplus import (
    minplus_closure_scalarcount,
    minplus_gemm,
    minplus_gemm_flops,
    minplus_inner,
    semiring_gemm,
)
from repro.semiring.engine import (
    KERNEL,
    SemiringGemmEngine,
    WorkspacePool,
    get_engine,
    minplus_kernel,
    minplus_symmetric_kernel,
    result_dtype,
    set_engine,
)
from repro.semiring.kernels import (
    diag_update,
    floyd_warshall_kernel,
    outer_update,
    panel_update_cols,
    panel_update_rows,
)

__all__ = [
    "BOOLEAN",
    "KERNEL",
    "MAX_PLUS",
    "MIN_MAX",
    "MIN_PLUS",
    "Semiring",
    "SemiringGemmEngine",
    "WorkspacePool",
    "diag_update",
    "floyd_warshall_kernel",
    "get_engine",
    "minplus_closure_scalarcount",
    "minplus_gemm",
    "minplus_gemm_flops",
    "minplus_inner",
    "minplus_kernel",
    "minplus_symmetric_kernel",
    "outer_update",
    "panel_update_cols",
    "panel_update_rows",
    "result_dtype",
    "semiring_gemm",
    "set_engine",
]

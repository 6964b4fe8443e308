"""Shared utilities: permutations and small numeric helpers."""

from repro.util.perm import (
    apply_symmetric_permutation,
    check_permutation,
    compose_permutations,
    identity_permutation,
    invert_permutation,
)

__all__ = [
    "apply_symmetric_permutation",
    "check_permutation",
    "compose_permutations",
    "identity_permutation",
    "invert_permutation",
]

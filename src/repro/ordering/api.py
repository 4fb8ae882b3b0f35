"""Top-level ordering entry point, and the check every permutation passes."""

from __future__ import annotations

import numpy as np

from repro.obs import span
from repro.ordering.registry import get_ordering
from repro.sparse.csc import CSCMatrix


def fill_reducing_ordering(matrix: CSCMatrix, method: str = "amd"
                           ) -> np.ndarray:
    """Compute a fill-reducing permutation (new index -> old index).

    Dispatches through :mod:`repro.ordering.registry`, so any registered
    method — built-in ("amd", "nd", "rcm", "natural") or plugin — is
    accepted, and the error message for an unknown name is
    always the current registry contents.

    Args:
        matrix: square sparse matrix (symmetrized pattern is used).
        method: registered ordering name.

    Raises:
        ValueError: the method returned something that is not a
            permutation of ``range(n)`` (the message names the method).
    """
    entry = get_ordering(method)
    with span(f"ordering.{method}"):
        perm = entry.fn(matrix)
    try:
        return validate_permutation(perm, matrix.n_rows)
    except ValueError as exc:
        raise ValueError(f"ordering {method!r} returned an invalid "
                         f"permutation: {exc}") from None


def validate_permutation(perm: np.ndarray, n: int) -> np.ndarray:
    """Check ``perm`` is a bijection of ``range(n)``; return it as int64.

    Raises:
        ValueError: a shape other than ``(n,)``, a non-integral dtype, an
            entry outside ``range(n)``, or a repeated entry.
    """
    perm = np.asarray(perm)
    if perm.shape != (n,):
        raise ValueError(
            f"permutation has shape {perm.shape}, expected ({n},)")
    if n and not np.issubdtype(perm.dtype, np.integer):
        raise ValueError(f"permutation dtype {perm.dtype} is not integral")
    if n and (perm.min() < 0 or perm.max() >= n):
        raise ValueError(f"permutation has entries outside range({n})")
    seen = np.zeros(n, dtype=bool)
    seen[perm] = True
    if not seen.all():
        raise ValueError("permutation is not a bijection of range(n)")
    return perm.astype(np.int64, copy=False)

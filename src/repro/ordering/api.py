"""Top-level ordering entry point."""

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
    """
    entry = get_ordering(method)
    with span(f"ordering.{method}"):
        perm = entry.fn(matrix)
    return np.asarray(perm, dtype=np.int64)

"""Sparse triangular solves (the fast phase of Figure 2).

Once L (and U) are computed, solving Ax = b is two sparse triangular
substitutions.  These run column-at-a-time over CSC factors; they are
O(nnz(L)) per right-hand side and validated against dense solves in tests.
They are the reference oracle the supernodal solve
(:mod:`repro.numeric.supernodal_solve`) is checked against, over
:meth:`repro.numeric.engine.Factor.to_csc` (the Cholesky backward solve
is the upper sweep over ``L.transpose()``).

Right-hand sides may be a vector or an (n, k) panel: each column of the
factor is applied to all k right-hand sides at once (a rank-1 panel
update), so k systems cost one sweep over the factor instead of k.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix


def _as_panel(b: np.ndarray, n: int, context: str
              ) -> tuple[np.ndarray, bool]:
    y = np.array(b, dtype=np.float64, copy=True)
    if y.shape[0] != n:
        raise ValueError(f"dimension mismatch in {context}")
    if y.ndim == 1:
        return y.reshape(-1, 1), True
    if y.ndim != 2:
        raise ValueError(f"{context}: b must be a vector or (n, k) array")
    return y, False


def solve_lower_csc(
    lower: CSCMatrix, b: np.ndarray, unit_diagonal: bool = False
) -> np.ndarray:
    """Solve L Y = B by forward substitution (L lower-triangular CSC)."""
    n = lower.n_cols
    y, was_vector = _as_panel(b, n, "forward solve")
    for j in range(n):
        rows = lower.col_rows(j)
        vals = lower.col_vals(j)
        if len(rows) == 0 or rows[0] != j:
            raise ValueError(f"missing diagonal in column {j}")
        if not unit_diagonal:
            y[j] /= vals[0]
        if len(rows) > 1:
            y[rows[1:]] -= np.outer(vals[1:], y[j])
    return y[:, 0] if was_vector else y


def solve_upper_csc(upper: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve U X = B by backward substitution (U upper-triangular CSC;
    for L^T X = Y pass ``L.transpose()``)."""
    n = upper.n_cols
    x, was_vector = _as_panel(b, n, "backward solve")
    for j in range(n - 1, -1, -1):
        rows = upper.col_rows(j)
        vals = upper.col_vals(j)
        if len(rows) == 0 or rows[-1] != j:
            raise ValueError(f"missing diagonal in column {j}")
        x[j] /= vals[-1]
        if len(rows) > 1:
            x[rows[:-1]] -= np.outer(vals[:-1], x[j])
    return x[:, 0] if was_vector else x

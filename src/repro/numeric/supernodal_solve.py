"""Supernodal (blocked) triangular solves.

The CSC solves in :mod:`repro.numeric.triangular` process one column at a
time.  Real multifrontal packages instead solve supernode-by-supernode
with dense panels — the same block structure the factorization produced —
which turns the solve into a sequence of small BLAS operations.  This
module implements that blocked solve directly on the
:class:`~repro.numeric.cholesky.CholeskyFactor` /
:class:`~repro.numeric.lu.LUFactors` outputs, avoiding the CSC
materialization entirely.

Right-hand sides may be a vector or an (n, k) panel; a panel is solved as
one blocked sweep (every per-supernode operation carries all k columns),
which is where multi-RHS throughput comes from — the panel updates are
matrix-matrix products instead of k repeated matrix-vector products.

Forward solve (L y = b), per supernode in postorder:
    y_sn   = L11^-1 b_sn                 (one dtrsm, in place)
    b_rest -= L21 @ y_sn                 (panel update, scattered by rows)
Backward solve (L^T x = y) runs the supernodes in reverse.

A supernode's pivot rows are the contiguous slice
``first_col:last_col + 1`` of the working panel, so the triangular solve
runs in the panel's own memory; only the update rows need a gather.
"""

from __future__ import annotations

import numpy as np

from repro.numeric.cholesky import CholeskyFactor
from repro.numeric.dense import _solve_lower_inplace, _solve_upper_inplace
from repro.numeric.lu import LUFactors


def _as_panel(b: np.ndarray) -> tuple[np.ndarray, bool]:
    """View ``b`` as a float64 (n, k) working panel; flag if it was 1-D."""
    y = np.asarray(b, dtype=np.float64).copy()
    if y.ndim == 1:
        return y.reshape(-1, 1), True
    if y.ndim != 2:
        raise ValueError("right-hand side must be a vector or (n, k) array")
    return y, False


def _supernodal_solve(supernodes, blocks, b: np.ndarray,
                      lu: bool) -> np.ndarray:
    """L U X = B over per-supernode ``(rows, P[, R])`` blocks: U = L^T for
    Cholesky; for LU, L has a unit diagonal (the stored diagonal holds
    U's pivots and is never read by the unit solve), U11 is the upper
    triangle of the pivot block and U12 the pivot rows ``R``."""
    y, was_vector = _as_panel(b)
    # Forward: L Y = B, supernodes in postorder.
    for sn, (rows, panel, *_) in zip(supernodes, blocks):
        k = sn.n_cols
        y_sn = y[sn.first_col:sn.last_col + 1]
        _solve_lower_inplace(panel[:k], y_sn, lu)
        if len(rows) > k:
            y[rows[k:]] -= panel[k:] @ y_sn
    # Backward: U X = Y, supernodes in reverse.
    x = y
    for sn, (rows, panel, *right) in zip(reversed(supernodes),
                                         reversed(blocks)):
        k = sn.n_cols
        rhs = x[sn.first_col:sn.last_col + 1]
        if len(rows) > k:
            rhs -= (right[0] if lu else panel[k:].T) @ x[rows[k:]]
        _solve_upper_inplace(panel[:k] if lu else panel[:k].T, rhs, False)
    return x[:, 0] if was_vector else x


def cholesky_solve(factor: CholeskyFactor, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) X = B using the supernodal factor directly.

    ``b`` is in the *permuted* index space (callers apply the fill
    permutation, as :class:`repro.numeric.solver.SparseSolver` does) and
    may be a vector or an (n, k) panel of right-hand sides.
    """
    return _supernodal_solve(factor.symbolic.tree.supernodes,
                             factor.columns, b, lu=False)


def lu_solve(factors: LUFactors, b: np.ndarray) -> np.ndarray:
    """Solve (L U) X = B using the supernodal factors directly.

    Same conventions as :func:`cholesky_solve`; ``b`` may be a vector or
    an (n, k) panel.
    """
    return _supernodal_solve(factors.symbolic.tree.supernodes,
                             factors.fronts, b, lu=True)

"""Supernodal (blocked) triangular solves.

The CSC solves in :mod:`repro.numeric.triangular` process one column at a
time.  Real multifrontal packages instead solve supernode-by-supernode
with dense panels — the same block structure the factorization produced —
which turns the solve into a sequence of small BLAS operations.  This
module implements that blocked solve directly on the
:class:`~repro.numeric.engine.Factor` both factorizations return,
avoiding the CSC materialization entirely.

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
runs in the panel's own memory; only the update rows need a gather.  The
factorization leaves every operand ready (the factor's ``operands``
table: pivot-row slice, the Fortran-contiguous ``L11^T``, ``L21``, the
update rows, ``L21^T`` or ``U12``), so a sweep step is one ``dtrsm`` and
one matrix product with nothing computed around them.
"""

from __future__ import annotations

import numpy as np

from repro.numeric import dense
from repro.numeric.engine import Factor


def _as_panel(b: np.ndarray) -> tuple[np.ndarray, bool]:
    """View ``b`` as a float64 (n, k) working panel; flag if it was 1-D."""
    y = np.asarray(b, dtype=np.float64).copy()
    if y.ndim == 1:
        return y.reshape(-1, 1), True
    if y.ndim != 2:
        raise ValueError("right-hand side must be a vector or (n, k) array")
    return y, False


def solve_panel(operands, y: np.ndarray, lu: bool) -> None:
    """Solve L U X = Y in place on ``y``, a private C-ordered (n, k)
    float64 panel, over the per-supernode operand table: U = L^T for
    Cholesky; for LU, L has a unit diagonal (the stored diagonal holds
    U's pivots and is never read by the unit solve), U11 is the upper
    triangle of the pivot block and U12 the pivot rows ``R``.  Every
    right-hand-side block is a row slice of the panel, so ``dtrsm``
    solves its Fortran-contiguous transpose in place."""
    trsm = dense.dtrsm
    # Forward: L Y = B, supernodes in postorder (Y^T L11^T = B^T, L11^T
    # the upper triangle of the L11^T view).
    for pivots, l11_t, l21, update_rows, _ in operands:
        y_sn = y[pivots]
        trsm(1.0, l11_t, y_sn.T, side=1, lower=0, diag=lu, overwrite_b=1)
        if len(update_rows):
            y[update_rows] -= l21 @ y_sn
    # Backward: U X = Y, supernodes in reverse (X^T U11^T = Y^T; for LU
    # U11^T is the lower triangle of the L11^T view, for Cholesky U11^T
    # is L11, the transposed upper triangle).
    for pivots, l11_t, _, update_rows, back in reversed(operands):
        rhs = y[pivots]
        if len(update_rows):
            rhs -= back @ y[update_rows]
        trsm(1.0, l11_t, rhs.T, side=1, lower=lu, trans_a=not lu,
             overwrite_b=1)


def _supernodal_solve(operands, b: np.ndarray, lu: bool) -> np.ndarray:
    """:func:`solve_panel` on a copy of the caller's ``b``."""
    y, was_vector = _as_panel(b)
    solve_panel(operands, y, lu)
    return y[:, 0] if was_vector else y


def cholesky_solve(factor: Factor, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) X = B using the supernodal factor directly.

    ``b`` is in the *permuted* index space (callers apply the fill
    permutation, as :class:`repro.numeric.solver.SparseSolver` does) and
    may be a vector or an (n, k) panel of right-hand sides.
    """
    return _supernodal_solve(factor.operands, b, lu=False)


def lu_solve(factors: Factor, b: np.ndarray) -> np.ndarray:
    """Solve (L U) X = B using the supernodal factors directly.

    Same conventions as :func:`cholesky_solve`; ``b`` may be a vector or
    an (n, k) panel.
    """
    return _supernodal_solve(factors.operands, b, lu=True)

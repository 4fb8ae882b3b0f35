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
runs in the panel's own memory; only the update rows need a gather.  Both
sweeps are one call into the compiled core (``repro_solve`` in
``_core.c``) over the factor's buffer: per supernode one ``dtrsm`` and one
``dgemm`` (``dgemv`` for a single right-hand side), with nothing computed
around them.
"""

from __future__ import annotations

import numpy as np

from repro.numeric.compiled import solve
from repro.numeric.engine import Factor


def _as_panel(b: np.ndarray) -> tuple[np.ndarray, bool]:
    """View ``b`` as a float64 (n, k) working panel; flag if it was 1-D."""
    y = np.asarray(b, dtype=np.float64).copy()
    if y.ndim == 1:
        return y.reshape(-1, 1), True
    if y.ndim != 2:
        raise ValueError("right-hand side must be a vector or (n, k) array")
    return y, False


def solve_panel(factor: Factor, y: np.ndarray) -> None:
    """Solve L U X = Y in place on ``y``, a private C-ordered (n, k)
    float64 panel, over ``factor``: U = L^T for Cholesky; for LU, L has a
    unit diagonal (the stored diagonal holds U's pivots and is never read
    by the unit solve), U11 is the upper triangle of the pivot block and
    U12 the pivot rows ``R``.  One call into the compiled core, which
    releases the GIL."""
    solve(factor.ctx.c, factor.buffer, y, factor.kind == "lu")


def _supernodal_solve(factor: Factor, b: np.ndarray) -> np.ndarray:
    """:func:`solve_panel` on a copy of the caller's ``b``."""
    y, was_vector = _as_panel(b)
    solve_panel(factor, y)
    return y[:, 0] if was_vector else y


def cholesky_solve(factor: Factor, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) X = B using the supernodal factor directly.

    ``b`` is in the *permuted* index space (callers apply the fill
    permutation, as :class:`repro.numeric.solver.SparseSolver` does) and
    may be a vector or an (n, k) panel of right-hand sides.
    """
    return _supernodal_solve(factor, b)


def lu_solve(factors: Factor, b: np.ndarray) -> np.ndarray:
    """Solve (L U) X = B using the supernodal factors directly.

    Same conventions as :func:`cholesky_solve`; ``b`` may be a vector or
    an (n, k) panel.
    """
    return _supernodal_solve(factors, b)

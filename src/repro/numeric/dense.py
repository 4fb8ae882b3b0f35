"""Dense kernels: the numeric payload of Spatula's task types (Table 1).

These are the computations a PE's systolic array performs, as *blocked
right-looking* algorithms on LAPACK/BLAS: each kernel factors the
``w x w`` diagonal block of a panel (``dpotrf`` for Cholesky; a per-pivot
loop for LU, whose static-pivoting bump LAPACK cannot do), solves the
sub-panel with one ``dtrsm``, then applies the panel to the trailing
submatrix with one matrix-matrix product.  The panel width ``w`` is
:mod:`repro.numeric.tuning`'s ``block_size``.  A panel of width 1 is the
textbook per-pivot step in plain NumPy (Listing 1), so ``block_size=1``
runs the unblocked algorithm exactly, with no LAPACK call — the
reference the tests hold the LAPACK path against.

Fronts are C-ordered and BLAS is Fortran-ordered, so operands go in as
transposed *views* (the lower triangle of a C array is the upper triangle
of its view; side and transposition flip).  f2py works in the caller's
memory when a view is Fortran-contiguous — row bands of a front, the
right-hand-side panel of the supernodal solves — and on a panel-sized
private copy otherwise (column bands); nothing front-sized is copied.

The factors are identical (up to floating-point reassociation of the
update sums) to the per-pivot algorithms the paper cites (Brent & Luk's
systolic Cholesky, Kung & Leiserson's systolic tsolve) and are validated
against ``numpy.linalg`` in tests.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

from repro.numeric.tuning import resolve_block_size

# -- dense triangular solves (multi-RHS) --------------------------------------


def _trsm(a: np.ndarray, b: np.ndarray, **flags) -> None:
    """``dtrsm`` on Fortran views, overwriting ``b`` with the solution.

    f2py solves in ``b``'s own memory when ``b`` is Fortran-contiguous and
    on a private copy otherwise; only then is the result copied back.
    """
    out = dtrsm(1.0, a, b, overwrite_b=1, **flags)
    if out is not b:
        b[...] = out


def _solve_tri_inplace(tri: np.ndarray, x: np.ndarray, lower: bool,
                       unit: bool) -> None:
    """Solve ``tri @ X = B`` in place on the C-ordered 2-D panel ``x``.

    One dtrsm on ``X.T @ tri.T = B.T``; ``tri`` goes in as whichever of
    ``tri`` / ``tri.T`` is Fortran-contiguous and needs no copy.
    """
    if tri.flags.f_contiguous:
        _trsm(tri, x.T, side=1, lower=lower, trans_a=1, diag=unit)
    else:
        _trsm(tri.T, x.T, side=1, lower=not lower, diag=unit)


def _solve_lower_inplace(tri: np.ndarray, x: np.ndarray, unit: bool) -> None:
    """Solve ``tri @ X = B`` in place (tri lower-triangular, X 2-D)."""
    _solve_tri_inplace(tri, x, True, unit)


def _solve_upper_inplace(tri: np.ndarray, x: np.ndarray, unit: bool) -> None:
    """Solve ``tri @ X = B`` in place (tri upper-triangular, X 2-D)."""
    _solve_tri_inplace(tri, x, False, unit)


def _solve_dense(tri, rhs, lower: bool, unit: bool) -> np.ndarray:
    x = np.array(rhs, dtype=np.float64, order="C")
    _solve_tri_inplace(tri, x.reshape(x.shape[0], -1), lower, unit)
    return x


def solve_lower_dense(tri: np.ndarray, rhs: np.ndarray,
                      unit: bool = False) -> np.ndarray:
    """Solve ``tri @ X = B`` for a dense lower-triangular ``tri``.

    ``rhs`` may be a vector or an (n, k) panel of right-hand sides; the
    result has the same shape.  With ``unit=True`` the diagonal (and the
    strict upper triangle) of ``tri`` is never read.
    """
    return _solve_dense(tri, rhs, True, unit)


def solve_upper_dense(tri: np.ndarray, rhs: np.ndarray,
                      unit: bool = False) -> np.ndarray:
    """Solve ``tri @ X = B`` for a dense upper-triangular ``tri``.

    Same conventions as :func:`solve_lower_dense`.
    """
    return _solve_dense(tri, rhs, False, unit)


# -- blocked factorization kernels -------------------------------------------


def _non_spd(pivot: float, position: int) -> ValueError:
    return ValueError(f"non-SPD pivot {pivot} at front position {position}")


def _cholesky_panel(f: np.ndarray, k0: int, k1: int) -> None:
    """Factor panel columns [k0, k1) against all rows below them.

    The trailing matrix is handled by the caller's rank-``(k1-k0)``
    update.  Raises on the first pivot (in elimination order) that is
    non-positive or non-finite.
    """
    if k1 - k0 == 1:
        pivot = f[k0, k0]
        if pivot <= 0.0 or not np.isfinite(pivot):
            raise _non_spd(pivot, k0)
        f[k0, k0] = np.sqrt(pivot)
        f[k1:, k0] /= f[k0, k0]
        return
    # U.T @ U on the Fortran view, U = L11.T in its upper triangle.
    diag_t = f[k0:k1, k0:k1].T
    u, info = dpotrf(diag_t, lower=0, clean=0, overwrite_a=1)
    # A NaN/+Inf pivot passes dpotrf's ``<= 0`` test with info == 0; the
    # columns before a reported failure are final, so the first bad
    # position is the first non-finite diagonal, else the reported one.
    pivots = u.diagonal()[:info - 1] if info > 0 else u.diagonal()
    finite = np.isfinite(pivots)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise _non_spd(pivots[bad], k0 + bad)
    if info > 0:
        raise _non_spd(u[info - 1, info - 1], k0 + info - 1)
    if u is not diag_t:
        diag_t[...] = u
    if k1 < f.shape[0]:
        # L21 = A21 @ L11^-T, as U.T @ L21.T = A21.T.
        _trsm(u, f[k1:, k0:k1].T, side=0, lower=0, trans_a=1)


def partial_cholesky(front: np.ndarray, n_pivots: int,
                     block: int | None = None) -> np.ndarray:
    """Run ``n_pivots`` Cholesky steps on a front, in place (Listing 2).

    Blocked right-looking: factor a panel of ``block`` columns, then apply
    one symmetric rank-``block`` update ``A22 -= L21 @ L21.T`` to the
    trailing block.  After the call, the leading ``n_pivots`` columns hold
    final L values and the trailing lower triangle holds the
    Schur-complement update matrix (the strict upper triangle of the
    front is not maintained; consumers read the lower triangle, as the
    per-pivot algorithm's callers already did).
    """
    f = front
    r = f.shape[0]
    bs = resolve_block_size(block)
    for k0 in range(0, n_pivots, bs):
        k1 = min(k0 + bs, n_pivots)
        _cholesky_panel(f, k0, k1)
        if k1 < r:
            panel = f[k1:, k0:k1]
            f[k1:, k1:] -= panel @ panel.T
    return f


def _lu_panel(f: np.ndarray, k0: int, k1: int, perturb: float) -> None:
    """LU of panel columns [k0, k1) and the U rows right of them.

    The static-pivoting bump needs every pivot in elimination order, so
    the ``w x w`` diagonal block is factored per pivot; L21 and U12 are
    one dtrsm each.
    """
    w = k1 - k0
    d = f[k0:k1, k0:k1]
    for k in range(w):
        pivot = d[k, k]
        if abs(pivot) < perturb:
            pivot = perturb if pivot >= 0 else -perturb
            d[k, k] = pivot
        if pivot == 0.0:
            raise ValueError(f"zero pivot at front position {k0 + k}")
        if k + 1 < w:
            d[k + 1:, k] /= pivot
            d[k + 1:, k + 1:] -= d[k + 1:, k][:, None] * d[k, k + 1:]
    if k1 == f.shape[0]:
        return
    if w == 1:
        f[k1:, k0] /= d[0, 0]
        return
    # L21 = A21 @ U11^-1, as U11.T @ L21.T = A21.T (U11.T is the lower
    # triangle of the Fortran view of d).
    _trsm(d.T, f[k1:, k0:k1].T, side=0, lower=1)
    # U12: solve unit-lower L11 @ U12 = A12 (the diagonal of d holds U
    # values, never read with unit=True).
    _solve_lower_inplace(d, f[k0:k1, k1:], True)


def partial_lu(front: np.ndarray, n_pivots: int,
               perturb: float = 0.0, block: int | None = None) -> np.ndarray:
    """Run ``n_pivots`` LU steps on a full-square front, in place.

    Blocked right-looking with the static-pivoting small-pivot bump
    (pivots with ``|pivot| < perturb`` are replaced by ``+/- perturb``;
    Li & Demmel).  Per panel: the panel factorization with its U rows
    (:func:`_lu_panel`), then one matmul trailing update.
    """
    f = front
    r = f.shape[0]
    bs = resolve_block_size(block)
    for k0 in range(0, n_pivots, bs):
        k1 = min(k0 + bs, n_pivots)
        _lu_panel(f, k0, k1, perturb)
        if k1 < r:
            f[k1:, k1:] -= f[k1:, k0:k1] @ f[k0:k1, k1:]
    return f


def zero_strict_triangle(a: np.ndarray, upper: bool) -> None:
    """Zero the strict upper (or lower) triangle of a square block in place.

    One row slice at a time: on the small ``k x k`` pivot blocks the
    factor drivers call this for, that is several times cheaper than
    building ``np.tril``'s boolean mask.
    """
    for i in range(1, a.shape[0]):
        if upper:
            a[i - 1, i:] = 0.0
        else:
            a[i, :i] = 0.0


def dense_cholesky(a: np.ndarray, block: int | None = None) -> np.ndarray:
    """Blocked dense Cholesky; returns lower-triangular L with A = L @ L.T.

    Raises ValueError on a non-positive pivot (matrix not SPD).
    """
    m = np.array(a, dtype=np.float64, copy=True)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("dense_cholesky requires a square matrix")
    partial_cholesky(m, n, block=block)
    return np.tril(m)


def dense_lu_nopivot(a: np.ndarray, perturb: float = 0.0,
                     block: int | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Blocked dense LU without pivoting (static pivoting happens first).

    Returns (L, U) with unit-diagonal L.  ``perturb`` is the static-pivoting
    small-pivot bump: pivots with |pivot| < perturb are replaced by
    +/- perturb, trading a tiny residual for stability (Li & Demmel).
    """
    m = np.array(a, dtype=np.float64, copy=True)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("dense_lu requires a square matrix")
    partial_lu(m, n, perturb=perturb, block=block)
    lower = np.tril(m, -1) + np.eye(n)
    upper = np.triu(m)
    return lower, upper


def tsolve_lower(block: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Solve X @ lower.T = block for X (the Cholesky panel tsolve).

    This is the tsolve task of Figure 11: given the factored diagonal tile
    ``lower`` (L11) and a subdiagonal block B, compute L21 = B @ L11^-T
    — the same dtrsm :func:`partial_cholesky` issues per panel.
    """
    x = np.array(block, dtype=np.float64, order="C")
    _trsm(lower.T, x.T, side=0, lower=0, trans_a=1)
    return x


def tsolve_upper(block: np.ndarray, lower_unit: np.ndarray) -> np.ndarray:
    """Solve lower_unit @ X = block for X (the LU U-panel tsolve).

    ``lower_unit`` is the unit-diagonal L11 of a dlu task's output; the
    result is the U12 panel.
    """
    return solve_lower_dense(lower_unit, block, unit=True)

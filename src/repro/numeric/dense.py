"""Dense kernels: the numeric payload of Spatula's task types (Table 1).

These are the computations a PE's systolic array performs, on LAPACK/BLAS.
A supernode's front of ``k`` pivots and ``m`` update rows is held split,
each part C-ordered: the pivot panel ``P`` (``size x k``: L11/L21, and
for LU U11 on and above the diagonal), for LU the pivot rows right of it
``R`` (``k x m``: U12), and the update block ``C`` (``m x m``).  Every
block a kernel touches is then a transposed Fortran view of a C-ordered
block, so each call runs in the caller's memory.

Per supernode (:func:`cholesky_front` / :func:`lu_front`, thin wrappers
over the front kernel of the compiled core, :mod:`repro.numeric.compiled`,
which the numeric engine runs too): the pivot block is one ``dpotrf``
(Cholesky) or one ``dgetrf`` on a column-major copy, accepted only when
it swapped no row, bumped no pivot and sums to a finite value (LU;
otherwise the per-pivot static-pivoting loop factors it), L21 and U12
are one ``dtrsm`` each, and ``C`` gets one rank-``k`` ``dsyrk`` /
``dgemm``.  Supernodes wider than :mod:`repro.numeric.tuning`'s
``block_size`` are factored right-looking in panels of that width inside
``P`` / ``R`` first, each trailing update one ``dgemm``.  A panel of
width 1 is the textbook per-pivot step (Listing 1), so ``block_size=1``
factors the pivot columns with no LAPACK call — the reference the tests
hold the LAPACK path against.

The dense triangular solves (:func:`solve_lower_dense`,
:func:`tsolve_lower`, ...) call ``scipy.linalg.blas.dtrsm``.  The factors
are identical (up to floating-point reassociation of the update sums) to
the per-pivot algorithms the paper cites (Brent & Luk's systolic
Cholesky, Kung & Leiserson's systolic tsolve) and are validated against
``numpy.linalg`` in tests.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm

from repro.numeric.compiled import front
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


def cholesky_front(panel: np.ndarray, update: np.ndarray,
                   block: int | None = None) -> None:
    """Factor one supernode's front in place (Listing 2).

    ``panel`` (``size x k``) becomes L11 over L21 (the strict upper
    triangle of ``panel[:k]`` is unspecified); ``update`` (``m x m``, only
    its lower triangle meaningful) receives the Schur complement; both
    C-contiguous.  Panels of ``block`` columns are factored right-looking
    inside ``panel``, then one rank-``k`` ``dsyrk`` updates ``update`` in
    its own memory.  Raises on the first pivot (in elimination order)
    that is non-positive or non-finite.
    """
    front(panel, None, update, resolve_block_size(block), None)


def lu_front(panel: np.ndarray, right: np.ndarray, update: np.ndarray,
             perturb: float = 0.0, block: int | None = None) -> int:
    """Factor one supernode's unsymmetric front in place; returns the
    number of bumped pivots.

    ``panel`` (``size x k``) becomes unit L11 (strict lower) with U11
    (upper) over L21, ``right`` (``k x m``) becomes U12, ``update``
    (``m x m``) receives the Schur complement; all C-contiguous.  Panels
    of ``block`` columns are factored right-looking inside ``panel`` /
    ``right`` (the diagonal block by ``dgetrf`` kept only if it is the
    unpivoted, unbumped LU, else by the per-pivot loop; L below and U
    right of it by one ``dtrsm`` each), then one rank-``k`` ``dgemm``
    updates ``update`` in its own memory.  Pivots with ``|pivot| <
    perturb`` are replaced by ``+/- perturb`` (Li & Demmel); a zero or
    non-finite pivot (after the bump) raises.
    """
    return front(panel, right, update, resolve_block_size(block), perturb)


def _on_square(front: np.ndarray, n_pivots: int, kernel) -> np.ndarray:
    """Run a split-front kernel on private copies of a square front's
    ``P`` / ``R`` / ``C`` parts and write them back."""
    parts = (front[:, :n_pivots], front[:n_pivots, n_pivots:],
             front[n_pivots:, n_pivots:])
    copies = [np.array(part) for part in parts]
    kernel(*copies)
    for part, copy in zip(parts, copies):
        part[...] = copy
    return front


def partial_cholesky(front: np.ndarray, n_pivots: int,
                     block: int | None = None) -> np.ndarray:
    """Run ``n_pivots`` Cholesky steps on a square front, in place: the
    square-front form of :func:`cholesky_front` (the strict upper
    triangle of the front is not maintained)."""
    return _on_square(front, n_pivots,
                      lambda p, _r, c: cholesky_front(p, c, block))


def partial_lu(front: np.ndarray, n_pivots: int,
               perturb: float = 0.0, block: int | None = None) -> np.ndarray:
    """Run ``n_pivots`` LU steps on a square front, in place: the
    square-front form of :func:`lu_front`, pivots with ``|pivot| <
    perturb`` replaced by ``+/- perturb`` (Li & Demmel)."""
    return _on_square(front, n_pivots,
                      lambda p, r, c: lu_front(p, r, c, perturb, block))


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
    — the same dtrsm :func:`cholesky_front` runs per panel.
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

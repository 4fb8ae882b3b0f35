"""Dense kernels: the numeric payload of Spatula's task types (Table 1).

These are the computations a PE's systolic array performs, on LAPACK/BLAS.
A supernode's front of ``k`` pivots and ``m`` update rows is held split,
each part C-ordered: the pivot panel ``P`` (``size x k``: L11/L21, and
for LU U11 on and above the diagonal), for LU the pivot rows right of it
``R`` (``k x m``: U12), and the update block ``C`` (``m x m``).  Every
block a kernel touches is then a transposed *Fortran-contiguous* view —
``P[:k].T``, ``P[k:].T``, ``R.T``, ``C.T`` — so f2py runs each call in the
caller's memory (scipy's wrappers take no leading dimension, so a
sub-block of a larger array would be copied).

Per supernode (:func:`cholesky_front` / :func:`lu_front`): the pivot
block is one ``dpotrf`` (Cholesky) or one ``dgetrf`` accepted only when it
swapped no row and bumped no pivot (LU; otherwise the per-pivot
static-pivoting loop factors it), L21 and U12 are one ``dtrsm`` each, and
``C`` gets one rank-``k`` ``dsyrk`` / ``dgemm``.  Supernodes wider than
:mod:`repro.numeric.tuning`'s ``block_size`` are factored right-looking
in panels of that width inside ``P`` / ``R`` first.  A panel of width 1
is the textbook per-pivot step in plain NumPy (Listing 1), so
``block_size=1`` factors the pivot columns with no LAPACK call — the
reference the tests hold the LAPACK path against.

The factors are identical (up to floating-point reassociation of the
update sums) to the per-pivot algorithms the paper cites (Brent & Luk's
systolic Cholesky, Kung & Leiserson's systolic tsolve) and are validated
against ``numpy.linalg`` in tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.blas import dgemm, dsyrk, dtrsm
from scipy.linalg.lapack import dgetrf, dpotrf

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
    """Factor panel columns [k0, k1) of ``f`` against all rows below them.

    The columns right of the panel are handled by the caller's
    rank-``(k1-k0)`` update.  Raises on the first pivot (in elimination
    order) that is non-positive or non-finite.
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


def cholesky_front(panel: np.ndarray, update: np.ndarray,
                   block: int | None = None) -> None:
    """Factor one supernode's front in place (Listing 2).

    ``panel`` (``size x k``) becomes L11 over L21 (the strict upper
    triangle of ``panel[:k]`` is unspecified); ``update`` (``m x m``, only
    its lower triangle meaningful) receives the Schur complement; both
    C-ordered.  Panels of ``block`` columns are factored right-looking
    inside ``panel``, then one rank-``k`` ``dsyrk`` updates ``update`` in
    its own memory.
    """
    k = panel.shape[1]
    bs = resolve_block_size(block)
    for k0 in range(0, k, bs):
        k1 = min(k0 + bs, k)
        _cholesky_panel(panel, k0, k1)
        if k1 < k:
            panel[k1:, k1:] -= panel[k1:, k0:k1] @ panel[k1:k, k0:k1].T
    if update.size:
        dsyrk(-1.0, panel[k:].T, trans=1, beta=1.0, c=update.T, lower=0,
              overwrite_c=1)


def _lu_diagonal(d: np.ndarray, k0: int, perturb: float) -> int:
    """Unpivoted LU of the square block ``d`` (front position ``k0``) in
    place; returns how many pivots the static-pivoting bump replaced.

    ``dgetrf`` on a Fortran copy is kept if it swapped no row, no pivot
    is below ``perturb`` and the factored block is finite: then it *is*
    the unpivoted LU.  Otherwise the per-pivot loop — the
    ``block_size=1`` reference, and the only code that applies the bump
    (Li & Demmel) or raises — factors the untouched values.  A NaN or
    infinite pivot (after the bump) is an error, reported at the first
    bad position in elimination order like a zero one.
    """
    w = d.shape[0]
    if w > 1:
        lu, piv, info = dgetrf(np.array(d, order="F"), overwrite_a=1)
        if (info == 0 and piv.tolist() == list(range(w))
                and np.minimum.reduce(np.abs(lu.diagonal())) >= perturb
                and math.isfinite(np.add.reduce(lu, axis=None))):
            d[...] = lu
            return 0
    bumped = 0
    for k in range(w):
        pivot = d[k, k]
        if abs(pivot) < perturb:
            pivot = perturb if pivot >= 0 else -perturb
            d[k, k] = pivot
            bumped += 1
        if not math.isfinite(pivot):
            raise ValueError(f"non-finite pivot {pivot} at front position "
                             f"{k0 + k}")
        if pivot == 0.0:
            raise ValueError(f"zero pivot at front position {k0 + k}")
        if k + 1 < w:
            d[k + 1:, k] /= pivot
            d[k + 1:, k + 1:] -= d[k + 1:, k][:, None] * d[k, k + 1:]
    return bumped


def lu_front(panel: np.ndarray, right: np.ndarray, update: np.ndarray,
             perturb: float = 0.0, block: int | None = None) -> int:
    """Factor one supernode's unsymmetric front in place; returns the
    number of bumped pivots.

    ``panel`` (``size x k``) becomes unit L11 (strict lower) with U11
    (upper) over L21, ``right`` (``k x m``) becomes U12, ``update``
    (``m x m``) receives the Schur complement; all C-ordered.  Panels of
    ``block`` columns are factored right-looking inside ``panel`` /
    ``right`` (diagonal block by :func:`_lu_diagonal`, L below and U
    right of it by one ``dtrsm`` each), then one rank-``k`` ``dgemm``
    updates ``update`` in its own memory.
    """
    k = panel.shape[1]
    bs = resolve_block_size(block)
    if k <= bs:
        # One panel, as nearly every circuit supernode is: the calls one
        # pass of the loop below makes for k0 = 0, k1 = k, on whole-row
        # views.  The loop's slicing costs ~1 us more a front, 4-5 % of
        # a circuit refactorize (docs/PERFORMANCE.md, "Kernels").
        d = panel[:k]
        bumped = _lu_diagonal(d, 0, perturb)
        if k == 1:
            panel[1:] /= d[0, 0]
        else:
            if k < panel.shape[0]:
                _trsm(d.T, panel[k:].T, side=0, lower=1)
            if right.size:
                _trsm(d.T, right.T, side=1, lower=0, diag=1)
    else:
        bumped = 0
        for k0 in range(0, k, bs):
            k1 = min(k0 + bs, k)
            d = panel[k0:k1, k0:k1]
            bumped += _lu_diagonal(d, k0, perturb)
            below = panel[k1:, k0:k1]
            if k1 - k0 == 1:
                below /= d[0, 0]
            else:
                # L21 = A21 @ U11^-1, as U11.T @ L21.T = A21.T (U11.T is
                # the lower triangle of the Fortran view of d).
                if below.size:
                    _trsm(d.T, below.T, side=0, lower=1)
                # U12: unit-lower L11 @ U12 = A12, as U12.T @ L11.T =
                # A12.T (d's diagonal is not read), in P right of the
                # panel and in R.
                if k1 < k:
                    _trsm(d.T, panel[k0:k1, k1:].T, side=1, lower=0,
                          diag=1)
                if right.size:
                    _trsm(d.T, right[k0:k1].T, side=1, lower=0, diag=1)
            if k1 < k:
                panel[k1:, k1:] -= below @ panel[k0:k1, k1:]
                right[k1:] -= panel[k1:k, k0:k1] @ right[k0:k1]
    if update.size:
        dgemm(-1.0, right.T, panel[k:].T, beta=1.0, c=update.T,
              overwrite_c=1)
    return bumped


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

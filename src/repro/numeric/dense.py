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
hold the LAPACK path against, as they hold both against
``numpy.linalg``.
"""

from __future__ import annotations

import numpy as np

from repro.numeric.compiled import front
from repro.numeric.tuning import resolve_block_size

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

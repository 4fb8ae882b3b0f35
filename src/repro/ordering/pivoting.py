"""Static pivoting for sparse LU (Section 2.4).

Following Li & Demmel's static-pivoting approach (SuperLU-DIST), we permute
rows *before* factorization so that large entries land on the diagonal, then
factor without dynamic pivoting.  The row permutation is computed as a
weight-greedy bipartite matching with Kuhn-style augmentation, a practical
stand-in for MC64: every column is matched to some row (so the diagonal is
structurally nonzero) and the greedy phase prefers the largest magnitudes.

:func:`apply_static_pivoting` also supports the small-pivot perturbation
used by static-pivoted solvers: pivots smaller than
``sqrt(eps) * ||A||_max`` are bumped during numeric factorization (see
``repro.numeric.lu``).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix


def static_pivoting(matrix: CSCMatrix) -> np.ndarray:
    """Compute a row permutation moving large entries onto the diagonal.

    Returns ``row_perm`` with ``row_perm[j]`` = the original row placed at
    row ``j``, i.e. the permuted matrix is ``A[row_perm, :]`` and its
    diagonal entry in column ``j`` is ``A[row_perm[j], j]``.

    Greedy phase: columns are visited by decreasing largest magnitude
    (``np.argsort(-best)``), and each takes its largest-magnitude row not
    yet taken; among equal magnitudes the lowest row index wins, and NaN
    magnitudes come last (a stable descending sort per column, which is
    what ``lexsort((-|a|, column))`` gives).  Augmentation (Kuhn's
    algorithm) then matches each column the greedy pass left over, in
    ascending column order, by a depth-first search for an augmenting
    path that tries a column's rows in ascending order; each search keeps
    its own stack and seen rows.  Both run in the compiled core
    (``repro_static_pivot``); the column order is sorted in NumPy.

    Raises ValueError if the matrix is structurally singular (no perfect
    matching between rows and columns exists).
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("static pivoting requires a square matrix")
    # Imported here: repro.numeric imports repro.ordering.
    from repro.numeric import compiled

    return compiled.static_pivoting(matrix.indptr, matrix.indices,
                                    matrix.data)


def apply_static_pivoting(matrix: CSCMatrix) -> tuple[CSCMatrix, np.ndarray]:
    """Row-permute a matrix so large entries sit on the diagonal.

    Returns (permuted matrix, row_perm) with the convention of
    :func:`static_pivoting`.
    """
    row_perm = static_pivoting(matrix)
    inverse = np.empty_like(row_perm)
    inverse[row_perm] = np.arange(len(row_perm))
    coo = matrix.to_coo()
    permuted = COOMatrix(
        matrix.n_rows, matrix.n_cols,
        inverse[coo.rows], coo.cols, coo.vals,
    )
    return CSCMatrix.from_coo(permuted), row_perm

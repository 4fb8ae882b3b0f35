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
    yet taken; among equal magnitudes the lowest row index wins.  One
    ``lexsort`` by (column, -|a|) orders every column's rows at once.
    Augmentation (Kuhn's algorithm) then matches each column the greedy
    pass left over, in ascending column order, by a depth-first search
    for an augmenting path that tries a column's rows in ascending order.
    The search keeps its own stack, so chain length is not bounded by the
    interpreter's recursion limit.

    Raises ValueError if the matrix is structurally singular (no perfect
    matching between rows and columns exists).
    """
    n = matrix.n_rows
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("static pivoting requires a square matrix")
    ptr = matrix.indptr.tolist()
    rows = matrix.indices.tolist()

    # match_col[j] = row matched to column j; match_row[i] = column of row i.
    match_col = [-1] * n
    match_row = [-1] * n

    # Greedy phase.  ``best`` is each column's largest magnitude (NaN if
    # the column holds one, 0 if it is empty).
    mag = np.abs(matrix.data)
    lengths = np.diff(matrix.indptr)
    best = np.zeros(n)
    filled = lengths > 0
    if filled.any():
        best[filled] = np.maximum.reduceat(mag, matrix.indptr[:-1][filled])
    cols = np.repeat(np.arange(n, dtype=np.int64), lengths)
    by_size = matrix.indices[np.lexsort((-mag, cols))].tolist()
    for j in np.argsort(-best).tolist():
        for k in range(ptr[j], ptr[j + 1]):
            i = by_size[k]
            if match_row[i] < 0:
                match_row[i] = j
                match_col[j] = i
                break

    # Augmentation phase: an explicit-stack depth-first search per
    # unmatched column.  path_cols[d] is the column at depth d and
    # path_rows[d] the row it is trying; row path_rows[d] is matched to
    # path_cols[d + 1].  ``seen`` spans one search, as in Kuhn's method.
    for root in range(n):
        if match_col[root] >= 0:
            continue
        seen: set[int] = set()
        path_cols, path_rows, cursor = [root], [], [ptr[root]]
        while path_cols:
            k, end = cursor[-1], ptr[path_cols[-1] + 1]
            while k < end and rows[k] in seen:
                k += 1
            if k == end:  # column exhausted: back up to its parent row
                path_cols.pop()
                cursor.pop()
                if path_rows:
                    path_rows.pop()
                continue
            i = rows[k]
            seen.add(i)
            cursor[-1] = k + 1
            path_rows.append(i)
            if match_row[i] < 0:
                break
            path_cols.append(match_row[i])
            cursor.append(ptr[match_row[i]])
        if not path_cols:
            raise ValueError("matrix is structurally singular")
        for j, i in zip(path_cols, path_rows):
            match_row[i] = j
            match_col[j] = i

    # Column j should receive original row match_col[j].
    return np.array(match_col, dtype=np.int64)


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

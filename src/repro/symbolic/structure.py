"""Nonzero structure of the Cholesky factor L.

Computes, for each column j, the sorted row indices of L[:, j] (diagonal
included).  This is the fill-in computation: entries appear either because
A has them or because an outer-product update of a descendant column
introduces them (Figure 1c in the paper).

The recurrence (processed in any topological order of the etree):

    struct(j) = rows(A lower, col j)  ∪  { union over children c of j of
                 struct(c) \\ {c} }

Column *counts* need none of that: :func:`column_counts` is the
Gilbert-Ng-Peyton skeleton algorithm, O(nnz(A) α(n)), no structures.
:func:`column_structures` uses the counts to skip every union that would
reproduce a child: ``struct(c) \\ {c}`` lies inside ``struct(j)``, so at
equal size column j is a *view* of the child's array.  One ``np.unique``
remains per column where subtrees meet (about a quarter of them on the
ladder matrices); memory is one array per chain of nested columns.

``symbolic_factorize`` needs only the counts: it builds supernode rows
with one union per supernode
(:func:`repro.symbolic.supernodes.supernodes_from_counts`), so
:func:`column_structures` serves the tests and the per-column replay.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import NO_PARENT, etree_children, postorder


def column_structures(
    matrix: CSCMatrix, parent: np.ndarray
) -> list[np.ndarray]:
    """Per-column sorted row-index structure of L (diagonal included).

    Columns along a chain of nested structures share one array (each is
    a view of its predecessor's tail), so the arrays are read-only.

    Args:
        matrix: square matrix with symmetric pattern (only the lower
            triangle is read).
        parent: elimination tree parent array for the same matrix.
    """
    n = matrix.n_cols
    counts = column_counts(matrix, parent).tolist()
    children = etree_children(parent)
    # A's strict lower triangle plus every diagonal entry, stored or not.
    diagonal = np.arange(n, dtype=np.int64)
    strict = matrix.to_coo().lower_triangle(strict=True)
    lower = CSCMatrix.from_coo(COOMatrix(
        n, n, np.concatenate((strict.rows, diagonal)),
        np.concatenate((strict.cols, diagonal)), np.zeros(strict.nnz + n)))
    indptr, indices = lower.indptr.tolist(), lower.indices
    structs: list[np.ndarray] = []
    # Columns in increasing order: children have smaller indices than
    # parents in an etree, so this is a valid topological order.
    for j in range(n):
        pieces = [indices[indptr[j]:indptr[j + 1]]]
        for c in children[j]:
            tail = structs[c][1:]
            if len(tail) == counts[j]:
                pieces = [tail]
                break
            pieces.append(tail)
        structs.append(pieces[0] if len(pieces) == 1
                       else np.unique(np.concatenate(pieces)))
    for struct in structs:
        struct.setflags(write=False)
    return structs


def column_counts(matrix: CSCMatrix, parent: np.ndarray,
                  post: Sequence[int] | None = None) -> np.ndarray:
    """nnz of each column of L (including the diagonal).

    Gilbert-Ng-Peyton: A(i, j), i > j, adds row i to column j only when
    j is a leaf of row i's subtree (a *skeleton* entry); where two such
    leaves' paths meet — their least common ancestor, by union-find over
    the postorder — the row was counted twice and is taken back.
    Summing the deltas up the tree gives the counts.  ``post`` is a
    postorder of ``parent`` when the caller has one (``range(n)`` for a
    postordered tree); by default it is computed.
    """
    n = matrix.n_cols
    up = np.asarray(parent).tolist()
    post = postorder(parent).tolist() if post is None else post
    # first[j]: postorder rank of j's first descendant (unranked at its
    # own turn = a leaf, which owns its diagonal).
    first = [-1] * n
    delta = [0] * n
    for rank, j in enumerate(post):
        if first[j] < 0:
            delta[j] = 1
        while j != NO_PARENT and first[j] < 0:
            first[j] = rank
            j = up[j]
    indptr, indices = matrix.indptr.tolist(), matrix.indices.tolist()
    max_first = [-1] * n
    prev_leaf = [-1] * n
    ancestor = list(range(n))
    for j in post:
        if up[j] != NO_PARENT:
            delta[up[j]] -= 1  # j's own row is not a row of its parent
        first_j = first[j]
        for i in indices[indptr[j]:indptr[j + 1]]:
            if i <= j or first_j <= max_first[i]:
                continue  # not lower, or j is not a leaf of row i's subtree
            max_first[i] = first_j
            delta[j] += 1
            q, prev_leaf[i] = prev_leaf[i], j
            if q >= 0:
                while q != ancestor[q]:
                    ancestor[q] = q = ancestor[ancestor[q]]
                delta[q] -= 1
        if up[j] != NO_PARENT:
            ancestor[j] = up[j]
    for j in post:
        if up[j] != NO_PARENT:
            delta[up[j]] += delta[j]
    return np.array(delta, dtype=np.int64)


def factor_nnz(matrix: CSCMatrix, parent: np.ndarray) -> int:
    """Total nonzeros of L — the fill-in headline number.

    The paper notes L typically has 10-150x the nonzeros of A; tests use
    this to verify orderings actually reduce fill.
    """
    return int(column_counts(matrix, parent).sum())


def cholesky_flops_from_counts(counts: np.ndarray) -> int:
    """Exact FLOP count of sparse Cholesky from column counts.

    Column j with c = counts[j] nonzeros (incl. diagonal) costs:
      1 sqrt + (c-1) divides + (c-1) * c multiply-subtract pairs
    for the outer-product update, i.e. 1 + (c-1) + (c-1)*c flops.
    """
    c = counts.astype(np.int64)
    return int(np.sum(1 + (c - 1) + (c - 1) * c))


def lu_flops_from_counts(counts: np.ndarray) -> int:
    """FLOP count of sparse LU on a symmetric-pattern factorization.

    With static pivoting and symmetric structure, LU does roughly twice the
    Cholesky work (Section 2.4): the U part mirrors L.
    Column j costs (c-1) divides + 2 * (c-1)^2 update flops.
    """
    c = counts.astype(np.int64) - 1
    return int(np.sum(c + 2 * c * c))

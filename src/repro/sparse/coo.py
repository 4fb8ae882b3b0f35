"""Coordinate (COO) sparse matrix format.

COO is the interchange format: generators and the MatrixMarket reader emit
COO, and everything downstream converts to :class:`repro.sparse.CSCMatrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def compress(
    n_rows: int, n_cols: int, rows: np.ndarray, cols: np.ndarray,
    vals: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Canonical CSC ``(indptr, indices, data)`` of a coordinate list.

    One stable sort of the keys ``col * n_rows + row`` puts entries in
    column-major order with duplicates adjacent, in input order; each
    run of duplicates is summed from 0.0 in that order by
    ``np.bincount(weights=)`` (so ``-0.0`` alone becomes ``+0.0``, and a
    run summing to zero stays as an explicit zero).  ``vals=None`` gives
    the pattern only, with ``data`` None.
    """
    keys = cols * n_rows + rows
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pick = order[first]
    indptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[pick], minlength=n_cols), out=indptr[1:])
    data = None
    if vals is not None:
        data = np.bincount(np.cumsum(first) - 1, weights=vals[order],
                           minlength=len(pick))
    return indptr, rows[pick], data


@dataclass
class COOMatrix:
    """A sparse matrix in coordinate format.

    Attributes:
        n_rows: number of rows.
        n_cols: number of columns.
        rows: int64 array of row coordinates, one per entry.
        cols: int64 array of column coordinates, one per entry.
        vals: float64 array of values, one per entry.

    Duplicate coordinates are allowed and are summed on conversion to CSC
    (the usual finite-element assembly convention).
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (len(self.rows) == len(self.cols) == len(self.vals)):
            raise ValueError("rows, cols, vals must have equal length")
        if len(self.rows) and (
            self.rows.min() < 0
            or self.cols.min() < 0
            or self.rows.max() >= self.n_rows
            or self.cols.max() >= self.n_cols
        ):
            raise ValueError("coordinate out of bounds")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates counted separately)."""
        return len(self.vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a dense array, dropping exact zeros."""
        dense = np.asarray(dense, dtype=np.float64)
        rows, cols = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array; duplicates are summed."""
        out = np.zeros(self.shape)
        np.add.at(out, (self.rows, self.cols), self.vals)
        return out

    def deduplicated(self) -> "COOMatrix":
        """Return a copy with duplicate coordinates summed and sorted."""
        indptr, rows, vals = compress(
            self.n_rows, self.n_cols, self.rows, self.cols, self.vals)
        cols = np.repeat(np.arange(self.n_cols, dtype=np.int64),
                         np.diff(indptr))
        return COOMatrix(self.n_rows, self.n_cols, rows, cols, vals)

    def to_csc(self):
        """Canonical COO -> CSC conversion.

        Duplicate coordinates are *summed* (finite-element assembly
        convention) and row indices end up sorted within each column.
        Every conversion path in the repo — this method,
        :meth:`CSCMatrix.from_coo`, :meth:`to_dense` — agrees on these
        semantics; entries whose duplicates sum to exactly zero are kept
        as explicit zeros (the pattern is structural, not numeric).
        """
        from repro.sparse.csc import CSCMatrix

        return CSCMatrix.from_coo(self)

    def transpose(self) -> "COOMatrix":
        """Return the transpose (entries swapped, no copy of values)."""
        return COOMatrix(
            self.n_cols, self.n_rows, self.cols.copy(), self.rows.copy(),
            self.vals.copy(),
        )

    def symmetrized(self) -> "COOMatrix":
        """Return (A + A^T) / 2 as a COO matrix (square matrices only)."""
        if self.n_rows != self.n_cols:
            raise ValueError("symmetrization requires a square matrix")
        rows = np.concatenate([self.rows, self.cols])
        cols = np.concatenate([self.cols, self.rows])
        vals = np.concatenate([self.vals, self.vals]) * 0.5
        return COOMatrix(self.n_rows, self.n_cols, rows, cols, vals).deduplicated()

    def lower_triangle(self, strict: bool = False) -> "COOMatrix":
        """Extract the lower triangle (including the diagonal unless strict)."""
        keep = self.rows > self.cols if strict else self.rows >= self.cols
        return COOMatrix(
            self.n_rows, self.n_cols,
            self.rows[keep], self.cols[keep], self.vals[keep],
        )

    def permuted(self, perm: np.ndarray) -> "COOMatrix":
        """Apply a symmetric permutation: returns A[perm, perm] as COO.

        ``perm`` maps new index -> old index, i.e. the returned matrix B
        satisfies ``B[i, j] == A[perm[i], perm[j]]``.
        """
        perm = np.asarray(perm, dtype=np.int64)
        if self.n_rows != self.n_cols or len(perm) != self.n_rows:
            raise ValueError("symmetric permutation requires square matrix")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        return COOMatrix(
            self.n_rows, self.n_cols,
            inverse[self.rows], inverse[self.cols], self.vals.copy(),
        )

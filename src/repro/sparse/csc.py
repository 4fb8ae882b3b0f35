"""Compressed sparse column (CSC) matrix format.

CSC is the working format of the symbolic and numeric factorization stages:
column traversal is the access pattern of Cholesky/LU (Listing 1 in the
paper), and CSC makes it O(nnz(col)).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix, compress


class CSCMatrix:
    """A sparse matrix in compressed sparse column format.

    Invariants (checked by :meth:`validate`):
      * ``indptr`` is nondecreasing with ``indptr[0] == 0`` and
        ``indptr[-1] == nnz``.
      * row indices within each column are strictly increasing.
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSCMatrix":
        """Convert from COO, summing duplicates and sorting row indices
        (:func:`repro.sparse.coo.compress`)."""
        return cls(coo.n_rows, coo.n_cols, *compress(
            coo.n_rows, coo.n_cols, coo.rows, coo.cols, coo.vals))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense))

    @classmethod
    def identity(cls, n: int) -> "CSCMatrix":
        """The n-by-n identity matrix."""
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    # -- basic properties --------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def validate(self) -> None:
        """Raise ValueError if any CSC structural invariant is violated."""
        if len(self.indptr) != self.n_cols + 1:
            raise ValueError("indptr has wrong length")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr endpoints are inconsistent")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if len(self.indices) != len(self.data):
            raise ValueError("indices and data length mismatch")
        # One pass over all entries; the first offending column is named,
        # and within a column a bound violation is reported first.
        rows, starts = self.indices, self.indptr[:-1]
        out = (rows < 0) | (rows >= self.n_rows)
        unordered = np.zeros(len(rows), dtype=bool)
        np.less_equal(rows[1:], rows[:-1], out=unordered[1:])
        unordered[starts[starts < len(rows)]] = False

        def first_column(mask: np.ndarray) -> int:
            if not mask.any():
                return self.n_cols
            return int(np.searchsorted(self.indptr, mask.argmax(), "right")) - 1

        bounds, order = first_column(out), first_column(unordered)
        if bounds < self.n_cols and bounds <= order:
            raise ValueError(f"row index out of bounds in column {bounds}")
        if order < self.n_cols:
            raise ValueError(
                f"row indices not strictly increasing in column {order}")

    # -- access ------------------------------------------------------------

    def col_rows(self, j: int) -> np.ndarray:
        """Row indices of the nonzeros in column j."""
        return self.indices[self.indptr[j]:self.indptr[j + 1]]

    def col_vals(self, j: int) -> np.ndarray:
        """Values of the nonzeros in column j."""
        return self.data[self.indptr[j]:self.indptr[j + 1]]

    def col_nnz(self, j: int) -> int:
        return int(self.indptr[j + 1] - self.indptr[j])

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal as a dense vector."""
        n = min(self.n_rows, self.n_cols)
        diag = np.zeros(n)
        for j in range(n):
            rows = self.col_rows(j)
            hit = np.searchsorted(rows, j)
            if hit < len(rows) and rows[hit] == j:
                diag[j] = self.col_vals(j)[hit]
        return diag

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for j in range(self.n_cols):
            out[self.col_rows(j), j] = self.col_vals(j)
        return out

    def to_coo(self) -> COOMatrix:
        cols = np.repeat(np.arange(self.n_cols), np.diff(self.indptr))
        return COOMatrix(
            self.n_rows, self.n_cols,
            self.indices.copy(), cols, self.data.copy(),
        )

    # -- operations ----------------------------------------------------------

    def transpose(self) -> "CSCMatrix":
        """Return A^T in CSC form (equivalently, A in CSR form)."""
        return CSCMatrix.from_coo(self.to_coo().transpose())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` for a vector or an (n, k) panel of vectors."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2):
            raise ValueError("matvec operand must be 1-D or 2-D")
        if x.shape[0] != self.n_cols:
            raise ValueError("dimension mismatch in matvec")
        if x.ndim == 1:
            y = np.zeros(self.n_rows)
            for j in range(self.n_cols):
                if x[j] != 0.0:
                    y[self.col_rows(j)] += self.col_vals(j) * x[j]
            return y
        y = np.zeros((self.n_rows, x.shape[1]))
        for j in range(self.n_cols):
            xj = x[j]
            if np.any(xj):
                y[self.col_rows(j)] += self.col_vals(j)[:, None] * xj
        return y

    def permuted(self, perm: np.ndarray) -> "CSCMatrix":
        """Symmetric permutation PAP^T with perm mapping new -> old index."""
        return CSCMatrix.from_coo(self.to_coo().permuted(perm))

    def lower_triangle(self, strict: bool = False) -> "CSCMatrix":
        """Extract the lower triangle as CSC."""
        return CSCMatrix.from_coo(self.to_coo().lower_triangle(strict=strict))

    def pattern_symmetrized(self) -> "CSCMatrix":
        """Return a matrix with the pattern of A + A^T and values of A
        (transposed entries that are absent in A contribute value 0).

        Used to set up symmetric-structure analysis for unsymmetric LU
        (the standard approach with static pivoting, cf. SuperLU-DIST).
        """
        coo = self.to_coo()
        rows = np.concatenate([coo.rows, coo.cols])
        cols = np.concatenate([coo.cols, coo.rows])
        vals = np.concatenate([coo.vals, np.zeros(coo.nnz)])
        merged = COOMatrix(self.n_rows, self.n_cols, rows, cols, vals)
        return CSCMatrix.from_coo(merged)

    def is_structurally_symmetric(self) -> bool:
        """True if the nonzero pattern of A equals that of A^T."""
        at = self.transpose()
        return (
            np.array_equal(self.indptr, at.indptr)
            and np.array_equal(self.indices, at.indices)
        )

    def is_symmetric(self, rtol: float = 1e-12) -> bool:
        """True if A is numerically symmetric within relative tolerance."""
        at = self.transpose()
        if not self.is_structurally_symmetric():
            return False
        scale = max(1.0, float(np.abs(self.data).max()) if self.nnz else 1.0)
        return bool(np.allclose(self.data, at.data, rtol=rtol, atol=rtol * scale))

    def column_pattern_csc(self) -> list[np.ndarray]:
        """The full pattern as a list of per-column row-index arrays."""
        return [self.col_rows(j).copy() for j in range(self.n_cols)]

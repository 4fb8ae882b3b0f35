"""Unit tests for the CSC sparse format."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix


def random_csc(rng, n_rows=8, n_cols=8, density=0.3):
    dense = rng.standard_normal((n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) > density] = 0.0
    return CSCMatrix.from_dense(dense), dense


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        m, dense = random_csc(rng)
        assert np.allclose(m.to_dense(), dense)

    def test_from_coo_sums_duplicates(self):
        coo = COOMatrix(2, 2, [0, 0], [0, 0], [1.5, 2.5])
        m = CSCMatrix.from_coo(coo)
        assert m.nnz == 1
        assert m.to_dense()[0, 0] == 4.0

    def test_matches_scipy_layout(self, rng):
        m, dense = random_csc(rng)
        ref = sp.csc_matrix(dense)
        assert np.array_equal(m.indptr, ref.indptr)
        assert np.array_equal(m.indices, ref.indices)
        assert np.allclose(m.data, ref.data)

    def test_identity(self):
        eye = CSCMatrix.identity(5)
        assert np.allclose(eye.to_dense(), np.eye(5))

    def test_validate_accepts_good(self, rng):
        m, _ = random_csc(rng)
        m.validate()

    def test_validate_rejects_bad_indptr(self):
        m = CSCMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            m.validate()

    def test_validate_rejects_unsorted_rows(self):
        m = CSCMatrix(3, 1, [0, 2], [2, 0], [1.0, 1.0])
        with pytest.raises(ValueError):
            m.validate()

    def test_validate_rejects_wrong_indptr_length(self):
        m = CSCMatrix(2, 3, [0, 1], [0], [1.0])
        with pytest.raises(ValueError):
            m.validate()

    @pytest.mark.parametrize("n_rows,indptr,indices,message", [
        # the first offending column is named, whichever check fails
        (4, [0, 2, 2, 4, 6], [0, 3, 2, 1, 0, 9],
         "row indices not strictly increasing in column 2"),
        (4, [0, 2, 2, 4, 6], [0, 3, 1, 2, 0, 9],
         "row index out of bounds in column 3"),
        (4, [0, 0, 0, 2, 3], [1, -1, 0],
         "row index out of bounds in column 2"),
        # within one column, bounds are reported before order
        (4, [0, 3], [2, 1, 7], "row index out of bounds in column 0"),
        # a column boundary is not a descent; a repeat is
        (4, [0, 2, 4], [2, 3, 0, 1], None),
        (4, [0, 2, 4], [2, 3, 1, 1],
         "row indices not strictly increasing in column 1"),
        (0, [0, 0, 0], [], None),
    ])
    def test_validate_names_first_offending_column(self, n_rows, indptr,
                                                   indices, message):
        m = CSCMatrix(n_rows, len(indptr) - 1, indptr, indices,
                      np.ones(len(indices)))
        if message is None:
            m.validate()
            return
        with pytest.raises(ValueError) as err:
            m.validate()
        assert str(err.value) == message

    def test_validate_agrees_with_a_per_column_scan(self, rng):
        """Random corruptions of a valid matrix: the message is what a
        column-by-column scan (bounds first) reports."""
        def scan(m):
            for j in range(m.n_cols):
                rows = m.col_rows(j)
                if len(rows) and (rows.min() < 0 or rows.max() >= m.n_rows):
                    return f"row index out of bounds in column {j}"
                if np.any(np.diff(rows) <= 0):
                    return ("row indices not strictly increasing in "
                            f"column {j}")
            return None

        base, _ = random_csc(rng, 12, 15, density=0.4)
        for _ in range(200):
            indices = base.indices.copy()
            hits = rng.integers(0, len(indices), rng.integers(1, 4))
            indices[hits] = rng.integers(-2, 14, len(hits))
            m = CSCMatrix(12, 15, base.indptr, indices, base.data)
            want = scan(m)
            if want is None:
                m.validate()
                continue
            with pytest.raises(ValueError) as err:
                m.validate()
            assert str(err.value) == want


class TestAccess:
    def test_col_rows_and_vals(self):
        dense = np.array([[1.0, 0.0], [2.0, 3.0]])
        m = CSCMatrix.from_dense(dense)
        assert list(m.col_rows(0)) == [0, 1]
        assert list(m.col_vals(0)) == [1.0, 2.0]
        assert m.col_nnz(1) == 1

    def test_diagonal(self, rng):
        m, dense = random_csc(rng)
        assert np.allclose(m.diagonal(), np.diag(dense))

    def test_diagonal_rectangular(self):
        dense = np.arange(6, dtype=float).reshape(2, 3) + 1
        m = CSCMatrix.from_dense(dense)
        assert np.allclose(m.diagonal(), [1.0, 5.0])

    def test_to_coo_roundtrip(self, rng):
        m, dense = random_csc(rng)
        again = CSCMatrix.from_coo(m.to_coo())
        assert np.allclose(again.to_dense(), dense)

    def test_column_pattern(self, rng):
        m, dense = random_csc(rng)
        for j, pat in enumerate(m.column_pattern_csc()):
            assert np.array_equal(pat, np.nonzero(dense[:, j])[0])


class TestOperations:
    def test_transpose(self, rng):
        m, dense = random_csc(rng, 5, 9)
        assert np.allclose(m.transpose().to_dense(), dense.T)

    def test_matvec(self, rng):
        m, dense = random_csc(rng)
        x = rng.standard_normal(8)
        assert np.allclose(m.matvec(x), dense @ x)

    def test_matvec_dim_mismatch(self, rng):
        m, _ = random_csc(rng)
        with pytest.raises(ValueError):
            m.matvec(np.ones(3))

    def test_permuted(self, rng):
        m, dense = random_csc(rng)
        perm = rng.permutation(8)
        assert np.allclose(m.permuted(perm).to_dense(),
                           dense[np.ix_(perm, perm)])

    def test_lower_triangle(self, rng):
        m, dense = random_csc(rng)
        assert np.allclose(m.lower_triangle().to_dense(), np.tril(dense))

    def test_pattern_symmetrized_pattern(self, rng):
        m, dense = random_csc(rng)
        s = m.pattern_symmetrized()
        want = (dense != 0) | (dense.T != 0)
        got = np.zeros_like(want)
        for j in range(s.n_cols):
            got[s.col_rows(j), j] = True
        assert np.array_equal(got, want)

    def test_pattern_symmetrized_keeps_values(self, rng):
        m, dense = random_csc(rng)
        s = m.pattern_symmetrized()
        assert np.allclose(s.to_dense(), dense)

    def test_is_structurally_symmetric(self):
        sym = CSCMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert sym.is_structurally_symmetric()
        asym = CSCMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 4.0]]))
        assert not asym.is_structurally_symmetric()

    def test_is_symmetric_numeric(self):
        sym = CSCMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sym.is_symmetric()
        notsym = CSCMatrix.from_dense(np.array([[1.0, 2.0], [2.1, 4.0]]))
        assert not notsym.is_symmetric()

    def test_grid_generator_matrix_symmetric(self, spd_small):
        assert spd_small.is_symmetric()
        spd_small.validate()

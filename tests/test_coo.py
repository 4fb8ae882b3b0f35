"""Unit tests for the COO sparse format."""

import numpy as np
import pytest

from repro.sparse.coo import COOMatrix


def make(n_rows=3, n_cols=3, entries=((0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0))):
    rows = [e[0] for e in entries]
    cols = [e[1] for e in entries]
    vals = [e[2] for e in entries]
    return COOMatrix(n_rows, n_cols, rows, cols, vals)


class TestConstruction:
    def test_shape_and_nnz(self):
        m = make()
        assert m.shape == (3, 3)
        assert m.nnz == 3

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix(2, 2, [0, 1], [0], [1.0, 2.0])

    def test_out_of_bounds_row_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix(2, 2, [2], [0], [1.0])

    def test_out_of_bounds_col_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix(2, 2, [0], [5], [1.0])

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError):
            COOMatrix(2, 2, [-1], [0], [1.0])

    def test_empty_matrix(self):
        m = COOMatrix(4, 4, [], [], [])
        assert m.nnz == 0
        assert np.array_equal(m.to_dense(), np.zeros((4, 4)))

    def test_from_dense_roundtrip(self, rng):
        dense = rng.standard_normal((5, 4))
        dense[np.abs(dense) < 0.7] = 0.0
        m = COOMatrix.from_dense(dense)
        assert np.allclose(m.to_dense(), dense)

    def test_from_dense_drops_zeros(self):
        dense = np.zeros((3, 3))
        dense[1, 1] = 5.0
        assert COOMatrix.from_dense(dense).nnz == 1


class TestDeduplication:
    def test_duplicates_summed(self):
        m = COOMatrix(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 4.0])
        d = m.deduplicated()
        assert d.nnz == 2
        assert d.to_dense()[0, 1] == 3.0

    def test_dedup_sorted_by_column_then_row(self):
        m = COOMatrix(3, 3, [2, 0, 1], [1, 1, 0], [1.0, 1.0, 1.0])
        d = m.deduplicated()
        assert list(d.cols) == [0, 1, 1]
        assert list(d.rows) == [1, 0, 2]

    def test_dedup_empty(self):
        d = COOMatrix(2, 2, [], [], []).deduplicated()
        assert d.nnz == 0

    def test_dedup_preserves_dense(self, rng):
        rows = rng.integers(0, 6, 40)
        cols = rng.integers(0, 6, 40)
        vals = rng.standard_normal(40)
        m = COOMatrix(6, 6, rows, cols, vals)
        assert np.allclose(m.to_dense(), m.deduplicated().to_dense())


class TestTransforms:
    def test_transpose(self, rng):
        dense = rng.standard_normal((4, 6))
        m = COOMatrix.from_dense(dense)
        assert np.allclose(m.transpose().to_dense(), dense.T)

    def test_transpose_shape(self):
        m = COOMatrix(2, 5, [0], [4], [1.0])
        assert m.transpose().shape == (5, 2)

    def test_symmetrized_is_symmetric(self, rng):
        dense = rng.standard_normal((5, 5))
        m = COOMatrix.from_dense(dense)
        s = m.symmetrized().to_dense()
        assert np.allclose(s, s.T)
        assert np.allclose(s, (dense + dense.T) / 2)

    def test_symmetrize_requires_square(self):
        m = COOMatrix(2, 3, [0], [0], [1.0])
        with pytest.raises(ValueError):
            m.symmetrized()

    def test_lower_triangle(self):
        dense = np.arange(9, dtype=float).reshape(3, 3) + 1
        m = COOMatrix.from_dense(dense)
        low = m.lower_triangle().to_dense()
        assert np.allclose(low, np.tril(dense))

    def test_lower_triangle_strict(self):
        dense = np.ones((3, 3))
        low = COOMatrix.from_dense(dense).lower_triangle(strict=True)
        assert np.allclose(low.to_dense(), np.tril(dense, -1))

    def test_permuted_definition(self, rng):
        dense = rng.standard_normal((5, 5))
        m = COOMatrix.from_dense(dense)
        perm = rng.permutation(5)
        p = m.permuted(perm).to_dense()
        assert np.allclose(p, dense[np.ix_(perm, perm)])

    def test_permuted_identity(self, rng):
        dense = rng.standard_normal((4, 4))
        m = COOMatrix.from_dense(dense)
        assert np.allclose(m.permuted(np.arange(4)).to_dense(), dense)

    def test_permuted_requires_square(self):
        m = COOMatrix(2, 3, [0], [0], [1.0])
        with pytest.raises(ValueError):
            m.permuted(np.array([0, 1]))

    def test_permute_then_inverse_roundtrip(self, rng):
        dense = rng.standard_normal((6, 6))
        m = COOMatrix.from_dense(dense)
        perm = rng.permutation(6)
        inverse = np.empty(6, dtype=np.int64)
        inverse[perm] = np.arange(6)
        back = m.permuted(perm).permuted(inverse)
        assert np.allclose(back.to_dense(), dense)


class TestDuplicateSemantics:
    """Duplicate coordinates mean "sum the entries" (finite-element
    assembly convention) on every conversion path, and duplicates that
    sum to exactly zero stay as explicit structural zeros."""

    def dup(self):
        # (0,0): 1+2=3; (1,0): 5-5=0 (structural zero); (2,1): single.
        return COOMatrix(3, 3, [0, 0, 1, 1, 2], [0, 0, 0, 0, 1],
                         [1.0, 2.0, 5.0, -5.0, 4.0])

    def test_to_csc_sums_duplicates(self):
        csc = self.dup().to_csc()
        dense = csc.to_dense()
        assert dense[0, 0] == 3.0
        assert dense[2, 1] == 4.0

    def test_zero_sum_duplicates_stay_structural(self):
        csc = self.dup().to_csc()
        # Three stored entries: (0,0), the explicit zero at (1,0), (2,1).
        assert csc.nnz == 3
        assert 1 in csc.col_rows(0)
        assert csc.to_dense()[1, 0] == 0.0

    def test_to_csc_matches_from_coo_exactly(self):
        from repro.sparse.csc import CSCMatrix

        coo = self.dup()
        a, b = coo.to_csc(), CSCMatrix.from_coo(coo)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_all_paths_agree_on_fuzzer_input(self):
        from repro.verify.generators import duplicate_entry_coo

        rng = np.random.default_rng(21)
        coo, reference = duplicate_entry_coo(rng, 8)
        ref = reference.to_dense()
        tol = dict(rtol=0.0, atol=16 * np.finfo(np.float64).eps)
        assert np.allclose(coo.to_dense(), ref, **tol)
        assert np.allclose(coo.to_csc().to_dense(), ref, **tol)
        assert np.allclose(coo.deduplicated().to_dense(), ref, **tol)

    def test_transforms_commute_with_deduplication(self, rng):
        from repro.verify.generators import duplicate_entry_coo

        coo, _ = duplicate_entry_coo(np.random.default_rng(22), 7)
        dedup = coo.deduplicated()
        perm = rng.permutation(7)
        pairs = [
            (coo.permuted(perm), dedup.permuted(perm)),
            (coo.symmetrized(), dedup.symmetrized()),
            (coo.lower_triangle(), dedup.lower_triangle()),
            (coo.transpose(), dedup.transpose()),
        ]
        for with_dups, without in pairs:
            assert np.allclose(with_dups.to_dense(), without.to_dense(),
                               rtol=0.0, atol=1e-13)

    def test_matrix_market_roundtrip_deduplicates(self, tmp_path):
        from repro.sparse.io import read_matrix_market, write_matrix_market

        coo = self.dup()
        path = tmp_path / "dup.mtx"
        write_matrix_market(path, coo)
        back = read_matrix_market(path)
        # The file is canonical: no duplicate coordinates, and the
        # declared nnz is the deduplicated count.
        assert back.nnz == coo.deduplicated().nnz
        keys = set(zip(back.rows.tolist(), back.cols.tolist()))
        assert len(keys) == back.nnz
        assert np.allclose(back.to_dense(), coo.to_dense())

    def test_matrix_market_symmetric_roundtrip_with_duplicates(self,
                                                               tmp_path):
        from repro.sparse.io import read_matrix_market, write_matrix_market
        from repro.verify.generators import duplicate_entry_coo

        coo, reference = duplicate_entry_coo(np.random.default_rng(23), 6)
        path = tmp_path / "sym.mtx"
        write_matrix_market(path, coo, symmetric=True)
        back = read_matrix_market(path)
        assert np.allclose(back.to_dense(), reference.to_dense(),
                           rtol=0.0, atol=1e-13)

    @staticmethod
    def assert_same_bits(ours, theirs):
        assert np.array_equal(ours.indptr, theirs.indptr)
        assert np.array_equal(ours.indices, theirs.indices)
        assert ours.data.dtype == theirs.data.dtype == np.float64
        assert np.array_equal(ours.data.view(np.uint64),
                              theirs.data.view(np.uint64))

    def test_from_coo_bits_match_lexsort_add_at(self):
        """The one-sort compression sums the same values in the same
        order as ``lexsort`` + ``np.add.at``: duplicates, a lone -0.0
        (which both turn into +0.0), -0.0 + -0.0, a run summing to an
        explicit zero, an empty column, entries given out of order."""
        from repro.sparse.csc import CSCMatrix

        from . import golden_oracles as golden

        # (3, 0) sums 1e16 + 1 + 1 in input order: 1e16, where summing
        # the ones first would give 1e16 + 2.
        coo = COOMatrix(
            4, 5,
            [3, 0, 0, 1, 1, 1, 2, 2, 0, 3, 2, 3, 3],
            [0, 0, 0, 0, 0, 2, 2, 2, 4, 4, 1, 0, 0],
            [1e16, 1.0, -1e16, 5.0, -5.0, -0.0, -0.0, -0.0, 0.1, 0.2,
             np.inf, 1.0, 1.0])
        ours, theirs = CSCMatrix.from_coo(coo), golden.from_coo(coo)
        self.assert_same_bits(ours, theirs)
        dense = ours.to_dense()
        assert ours.nnz == 8
        assert 1 in ours.col_rows(0) and dense[1, 0] == 0.0  # explicit zero
        assert dense[3, 0] == 1e16
        assert not np.signbit(ours.col_vals(2)).any()
        assert ours.col_nnz(3) == 0 and dense[2, 1] == np.inf

    def test_from_coo_bits_match_on_random_duplicates(self):
        from repro.sparse.csc import CSCMatrix
        from repro.verify.generators import duplicate_entry_coo

        from . import golden_oracles as golden

        rng = np.random.default_rng(25)
        for n in (1, 2, 7, 30):
            coo, _ = duplicate_entry_coo(rng, n)
            self.assert_same_bits(CSCMatrix.from_coo(coo),
                                  golden.from_coo(coo))
            k = 4 * n * n
            coo = COOMatrix(n, n + 3, rng.integers(0, n, k),
                            rng.integers(0, n + 3, k),
                            rng.standard_normal(k) * 10.0 ** rng.integers(
                                -8, 8, k))
            self.assert_same_bits(CSCMatrix.from_coo(coo),
                                  golden.from_coo(coo))
        empty = COOMatrix(3, 2, [], [], [])
        self.assert_same_bits(CSCMatrix.from_coo(empty),
                              golden.from_coo(empty))

    def test_solver_agrees_with_deduplicated_reference(self):
        from repro.numeric import SparseSolver
        from repro.verify.generators import duplicate_entry_coo

        rng = np.random.default_rng(24)
        coo, reference = duplicate_entry_coo(rng, 10)
        b = rng.standard_normal(10)
        x_dup = SparseSolver(coo.to_csc(), kind="cholesky").solve(b)
        x_ref = SparseSolver(reference, kind="cholesky").solve(b)
        assert np.allclose(x_dup, x_ref, rtol=1e-10, atol=1e-12)

"""Tests for dense kernels, multifrontal Cholesky/LU, and triangular
solves (validated against NumPy oracles)."""

import numpy as np
import pytest

from repro.numeric import engine
from repro.numeric.cholesky import multifrontal_cholesky
from repro.numeric.dense import (
    dense_cholesky,
    dense_lu_nopivot,
    partial_cholesky,
    partial_lu,
    tsolve_lower,
    tsolve_upper,
)
from repro.numeric.lu import multifrontal_lu
from repro.numeric.triangular import (
    solve_lower_csc,
    solve_upper_csc,
    solve_upper_csc_direct,
)
from repro.sparse.csc import CSCMatrix
from repro.symbolic import symbolic_factorize


def random_spd_dense(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestDenseKernels:
    def test_cholesky_matches_numpy(self, rng):
        a = random_spd_dense(rng, 12)
        assert np.allclose(dense_cholesky(a), np.linalg.cholesky(a))

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(ValueError):
            dense_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_cholesky_rejects_rectangular(self):
        with pytest.raises(ValueError):
            dense_cholesky(np.ones((2, 3)))

    def test_lu_reconstructs(self, rng):
        a = random_spd_dense(rng, 10) + rng.standard_normal((10, 10))
        lower, upper = dense_lu_nopivot(a)
        assert np.allclose(lower @ upper, a)
        assert np.allclose(np.diag(lower), 1.0)
        assert np.allclose(lower, np.tril(lower))
        assert np.allclose(upper, np.triu(upper))

    def test_lu_zero_pivot_raises(self):
        with pytest.raises(ValueError):
            dense_lu_nopivot(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_lu_perturbation_rescues_small_pivot(self):
        a = np.array([[1e-20, 1.0], [1.0, 1.0]])
        lower, upper = dense_lu_nopivot(a, perturb=1e-8)
        assert np.isfinite(lower).all() and np.isfinite(upper).all()

    def test_tsolve_lower(self, rng):
        l11 = np.tril(rng.standard_normal((6, 6))) + 6 * np.eye(6)
        block = rng.standard_normal((4, 6))
        x = tsolve_lower(block, l11)
        assert np.allclose(x @ l11.T, block)

    def test_tsolve_upper(self, rng):
        l11 = np.tril(rng.standard_normal((5, 5)), -1) + np.eye(5)
        block = rng.standard_normal((5, 7))
        x = tsolve_upper(block, l11)
        assert np.allclose(l11 @ x, block)

    def test_partial_cholesky_schur(self, rng):
        # After k pivots, the trailing block is the Schur complement.
        n, k = 10, 4
        a = random_spd_dense(rng, n)
        front = a.copy()
        partial_cholesky(front, k)
        a11, a21, a22 = a[:k, :k], a[k:, :k], a[k:, k:]
        schur = a22 - a21 @ np.linalg.inv(a11) @ a21.T
        assert np.allclose(np.tril(front[k:, k:]), np.tril(schur))

    def test_partial_cholesky_full_equals_dense(self, rng):
        a = random_spd_dense(rng, 8)
        front = a.copy()
        partial_cholesky(front, 8)
        assert np.allclose(np.tril(front), np.linalg.cholesky(a))

    def test_partial_lu_schur(self, rng):
        n, k = 9, 3
        a = random_spd_dense(rng, n) + rng.standard_normal((n, n))
        front = a.copy()
        partial_lu(front, k)
        a11, a12 = a[:k, :k], a[:k, k:]
        a21, a22 = a[k:, :k], a[k:, k:]
        schur = a22 - a21 @ np.linalg.inv(a11) @ a12
        assert np.allclose(front[k:, k:], schur)


class TestMultifrontalCholesky:
    @pytest.mark.parametrize("ordering", ["amd", "nd", "rcm", "natural"])
    def test_reconstructs_under_all_orderings(self, ordering, spd_medium):
        sf = symbolic_factorize(spd_medium, kind="cholesky",
                                ordering=ordering)
        factor = multifrontal_cholesky(spd_medium, sf)
        lower = factor.to_csc().to_dense()
        want = spd_medium.permuted(sf.perm).to_dense()
        assert np.allclose(lower @ lower.T, want, atol=1e-10)

    def test_matches_numpy_cholesky(self, spd_small):
        sf = symbolic_factorize(spd_small, kind="cholesky")
        lower = multifrontal_cholesky(spd_small, sf).to_csc().to_dense()
        ref = np.linalg.cholesky(spd_small.permuted(sf.perm).to_dense())
        assert np.allclose(lower, ref, atol=1e-10)

    def test_irregular_matrix(self, spd_irregular):
        sf = symbolic_factorize(spd_irregular, kind="cholesky")
        lower = multifrontal_cholesky(spd_irregular, sf).to_csc().to_dense()
        want = spd_irregular.permuted(sf.perm).to_dense()
        assert np.allclose(lower @ lower.T, want, atol=1e-9)

    def test_amalgamation_does_not_change_values(self, spd_medium):
        tight = symbolic_factorize(spd_medium, relax_small=0, relax_ratio=0.0)
        loose = symbolic_factorize(spd_medium, relax_small=16,
                                   relax_ratio=0.6, force_small=64)
        lt = multifrontal_cholesky(spd_medium, tight).to_csc().to_dense()
        ll = multifrontal_cholesky(spd_medium, loose).to_csc().to_dense()
        # Both must reconstruct; they may differ only by explicit zeros.
        pt = spd_medium.permuted(tight.perm).to_dense()
        pl = spd_medium.permuted(loose.perm).to_dense()
        assert np.allclose(lt @ lt.T, pt, atol=1e-10)
        assert np.allclose(ll @ ll.T, pl, atol=1e-10)

    def test_nnz_accounting(self, spd_medium, monkeypatch):
        sf = symbolic_factorize(spd_medium, relax_small=0, relax_ratio=0.0)
        factor = multifrontal_cholesky(spd_medium, sf)
        # nnz() counts stored entries, the merged fronts' explicit zeros
        # included.
        assert factor.nnz() == factor.to_csc().nnz > sf.factor_nnz
        # Without amalgamation in the analysis or the engine, stored nnz
        # equals predicted fill.
        monkeypatch.setattr(engine, "MERGE_WIDTH", 0)
        monkeypatch.setattr(engine, "MERGE_FRONT", 0)
        sf = symbolic_factorize(spd_medium, relax_small=0, relax_ratio=0.0)
        assert multifrontal_cholesky(spd_medium, sf).nnz() == sf.factor_nnz

    def test_kind_mismatch_raises(self, spd_small):
        sf = symbolic_factorize(spd_small, kind="lu")
        with pytest.raises(ValueError):
            multifrontal_cholesky(spd_small, sf)


class TestMultifrontalLU:
    @pytest.mark.parametrize("fixture", ["unsym_small", "unsym_random"])
    def test_reconstructs(self, fixture, request):
        matrix = request.getfixturevalue(fixture)
        sf = symbolic_factorize(matrix, kind="lu")
        factors = multifrontal_lu(matrix, sf)
        lower, upper = factors.to_csc()
        want = matrix.permuted(sf.perm).to_dense()
        assert np.allclose(lower.to_dense() @ upper.to_dense(), want,
                           atol=1e-9)

    def test_unit_diagonal_l(self, unsym_small):
        sf = symbolic_factorize(unsym_small, kind="lu")
        lower, _ = multifrontal_lu(unsym_small, sf).to_csc()
        assert np.allclose(np.diag(lower.to_dense()), 1.0)

    def test_no_perturbation_on_dominant_matrix(self, unsym_small):
        sf = symbolic_factorize(unsym_small, kind="lu")
        assert multifrontal_lu(unsym_small, sf).perturbed_pivots == 0

    def test_symmetric_matrix_via_lu(self, spd_small):
        sf = symbolic_factorize(spd_small, kind="lu")
        lower, upper = multifrontal_lu(spd_small, sf).to_csc()
        want = spd_small.permuted(sf.perm).to_dense()
        assert np.allclose(lower.to_dense() @ upper.to_dense(), want,
                           atol=1e-10)

    def test_kind_mismatch_raises(self, unsym_small):
        with pytest.raises(ValueError):
            multifrontal_lu(unsym_small, symbolic_factorize(
                unsym_small.pattern_symmetrized(), kind="cholesky"))


class TestTriangularSolves:
    def test_forward_solve(self, rng):
        lower = np.tril(rng.standard_normal((8, 8))) + 8 * np.eye(8)
        b = rng.standard_normal(8)
        y = solve_lower_csc(CSCMatrix.from_dense(lower), b)
        assert np.allclose(lower @ y, b)

    def test_backward_solve_via_lower(self, rng):
        lower = np.tril(rng.standard_normal((8, 8))) + 8 * np.eye(8)
        b = rng.standard_normal(8)
        x = solve_upper_csc(CSCMatrix.from_dense(lower), b)
        assert np.allclose(lower.T @ x, b)

    def test_unit_diagonal_forward(self, rng):
        lower = np.tril(rng.standard_normal((6, 6)), -1) + np.eye(6)
        b = rng.standard_normal(6)
        y = solve_lower_csc(CSCMatrix.from_dense(lower), b,
                            unit_diagonal=True)
        assert np.allclose(lower @ y, b)

    def test_upper_direct(self, rng):
        upper = np.triu(rng.standard_normal((7, 7))) + 7 * np.eye(7)
        b = rng.standard_normal(7)
        x = solve_upper_csc_direct(CSCMatrix.from_dense(upper), b)
        assert np.allclose(upper @ x, b)

    def test_missing_diagonal_raises(self):
        lower = np.array([[0.0, 0.0], [1.0, 2.0]])
        m = CSCMatrix.from_dense(lower)
        with pytest.raises(ValueError):
            solve_lower_csc(m, np.ones(2))

    def test_dimension_mismatch_raises(self, rng):
        lower = CSCMatrix.from_dense(np.eye(4))
        with pytest.raises(ValueError):
            solve_lower_csc(lower, np.ones(5))

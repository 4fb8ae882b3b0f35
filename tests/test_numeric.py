"""Tests for dense kernels, multifrontal Cholesky/LU, and triangular
solves (validated against NumPy oracles)."""

import numpy as np
import pytest

from repro.numeric.cholesky import multifrontal_cholesky
from repro.numeric.dense import (
    cholesky_front,
    lu_front,
    partial_cholesky,
    partial_lu,
)
from repro.numeric.lu import multifrontal_lu
from repro.numeric.solver import SparseSolver
from repro.numeric.triangular import solve_lower_csc, solve_upper_csc
from repro.sparse.csc import CSCMatrix
from repro.symbolic import symbolic_factorize
from repro.verify.differential import REJECTION_ERRORS
from repro.verify.generators import build_case, family_names

from .test_symbolic_golden import LADDER


def random_spd_dense(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def cholesky_of(a):
    """L of a square matrix by the square-front Cholesky kernel."""
    return np.tril(partial_cholesky(np.array(a, dtype=np.float64),
                                    len(a)))


def lu_of(a, perturb=0.0):
    """``(L, U)`` of a square matrix by the square-front LU kernel."""
    f = partial_lu(np.array(a, dtype=np.float64), len(a), perturb=perturb)
    return np.tril(f, -1) + np.eye(len(a)), np.triu(f)


class TestDenseKernels:
    def test_cholesky_matches_numpy(self, rng):
        a = random_spd_dense(rng, 12)
        assert np.allclose(cholesky_of(a), np.linalg.cholesky(a))

    def test_cholesky_rejects_indefinite(self):
        with pytest.raises(ValueError):
            cholesky_of(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_cholesky_rejects_rectangular(self):
        with pytest.raises(ValueError):
            partial_cholesky(np.ones((2, 3)), 2)

    def test_lu_reconstructs(self, rng):
        a = random_spd_dense(rng, 10) + rng.standard_normal((10, 10))
        lower, upper = lu_of(a)
        assert np.allclose(lower @ upper, a)
        assert np.allclose(np.diag(lower), 1.0)
        assert np.allclose(lower, np.tril(lower))
        assert np.allclose(upper, np.triu(upper))

    def test_lu_zero_pivot_raises(self):
        with pytest.raises(ValueError):
            lu_of(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_lu_perturbation_rescues_small_pivot(self):
        a = np.array([[1e-20, 1.0], [1.0, 1.0]])
        lower, upper = lu_of(a, perturb=1e-8)
        assert np.isfinite(lower).all() and np.isfinite(upper).all()

    def test_tsolve_lower(self, rng):
        # The Cholesky front's tsolve: L21 = A21 L11^-T below the pivots.
        l11 = np.tril(rng.standard_normal((6, 6))) + 6 * np.eye(6)
        block = rng.standard_normal((4, 6))
        panel = np.vstack((l11 @ l11.T, block))
        cholesky_front(panel, np.zeros((4, 4)))
        assert np.allclose(np.tril(panel[:6]), l11)
        assert np.allclose(panel[6:] @ l11.T, block)

    def test_tsolve_upper(self, rng):
        # The LU front's U-panel tsolve: U12 = L11^-1 A12 right of them.
        l11 = np.tril(rng.standard_normal((5, 5)), -1) + np.eye(5)
        u11 = np.triu(rng.standard_normal((5, 5))) + 5 * np.eye(5)
        block = rng.standard_normal((5, 7))
        panel = np.vstack((l11 @ u11, np.zeros((7, 5))))
        right = block.copy()
        lu_front(panel, right, np.zeros((7, 7)))
        assert np.allclose(np.tril(panel[:5], -1) + np.eye(5), l11)
        assert np.allclose(l11 @ right, block)

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
        lower = factor.to_csc()[0].to_dense()
        want = spd_medium.permuted(sf.perm).to_dense()
        assert np.allclose(lower @ lower.T, want, atol=1e-10)

    def test_matches_numpy_cholesky(self, spd_small):
        sf = symbolic_factorize(spd_small, kind="cholesky")
        lower = multifrontal_cholesky(spd_small, sf).to_csc()[0].to_dense()
        ref = np.linalg.cholesky(spd_small.permuted(sf.perm).to_dense())
        assert np.allclose(lower, ref, atol=1e-10)

    def test_irregular_matrix(self, spd_irregular):
        sf = symbolic_factorize(spd_irregular, kind="cholesky")
        lower, _ = multifrontal_cholesky(spd_irregular, sf).to_csc()
        lower = lower.to_dense()
        want = spd_irregular.permuted(sf.perm).to_dense()
        assert np.allclose(lower @ lower.T, want, atol=1e-9)

    def test_amalgamation_does_not_change_values(self, spd_medium):
        tight = symbolic_factorize(spd_medium, relax_small=0, relax_ratio=0.0)
        loose = symbolic_factorize(spd_medium, relax_small=16,
                                   relax_ratio=0.6, force_small=64)
        lt = multifrontal_cholesky(spd_medium, tight).to_csc()[0].to_dense()
        ll = multifrontal_cholesky(spd_medium, loose).to_csc()[0].to_dense()
        # Both must reconstruct; they may differ only by explicit zeros.
        pt = spd_medium.permuted(tight.perm).to_dense()
        pl = spd_medium.permuted(loose.perm).to_dense()
        assert np.allclose(lt @ lt.T, pt, atol=1e-10)
        assert np.allclose(ll @ ll.T, pl, atol=1e-10)

    def test_nnz_accounting(self, spd_medium):
        # Without amalgamation in the analysis, stored nnz equals
        # predicted fill: the engine factors the analysis's supernodes.
        sf = symbolic_factorize(spd_medium, relax_small=0, relax_ratio=0.0)
        factor = multifrontal_cholesky(spd_medium, sf)
        assert factor.nnz() == factor.to_csc()[0].nnz == sf.factor_nnz
        # nnz() counts stored entries, the amalgamated fronts' explicit
        # zeros included.
        sf = symbolic_factorize(spd_medium, relax_small=16, relax_ratio=0.6,
                                force_small=64)
        factor = multifrontal_cholesky(spd_medium, sf)
        assert factor.nnz() == factor.to_csc()[0].nnz > sf.factor_nnz

    @pytest.mark.parametrize("kind", ["cholesky", "lu"])
    @pytest.mark.parametrize("family", family_names())
    def test_nnz_accounting_both_kinds(self, family, kind):
        """``Factor.nnz()`` counts what ``to_csc()`` stores, for both
        kinds, and ``SparseSolver.factor_nnz`` is that count."""
        for seed in range(3):
            matrix = build_case(family, seed).matrix
            try:
                solver = SparseSolver(matrix, kind=kind, use_cache=False)
            except REJECTION_ERRORS:
                continue
            lower, upper = solver.factor.to_csc()
            stored = lower.nnz + (0 if upper is None else upper.nnz)
            assert solver.factor.nnz() == stored == solver.factor_nnz

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
        x = solve_upper_csc(CSCMatrix.from_dense(lower).transpose(), b)
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
        x = solve_upper_csc(CSCMatrix.from_dense(upper), b)
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


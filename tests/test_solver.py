"""Tests for the end-to-end SparseSolver."""

import numpy as np
import pytest

from repro.numeric import SparseSolver
from repro.sparse import (
    circuit_like,
    grid_laplacian_2d,
    grid_laplacian_3d,
)
from repro.sparse.csc import CSCMatrix


class TestCholeskySolver:
    @pytest.mark.parametrize("ordering", ["amd", "nd", "rcm"])
    def test_solve_residual(self, ordering, rng, spd_medium):
        solver = SparseSolver(spd_medium, kind="cholesky", ordering=ordering)
        b = rng.standard_normal(spd_medium.n_rows)
        x = solver.solve(b)
        assert solver.residual_norm(spd_medium, x, b) < 1e-12

    def test_matches_dense_solve(self, rng, spd_small):
        solver = SparseSolver(spd_small)
        b = rng.standard_normal(spd_small.n_rows)
        x = solver.solve(b)
        want = np.linalg.solve(spd_small.to_dense(), b)
        assert np.allclose(x, want)

    def test_multiple_rhs_sequential(self, rng, spd_small):
        solver = SparseSolver(spd_small)
        for _ in range(3):
            b = rng.standard_normal(spd_small.n_rows)
            assert solver.residual_norm(spd_small, solver.solve(b), b) < 1e-12

    def test_factor_nnz_positive(self, spd_small):
        assert SparseSolver(spd_small).factor_nnz >= spd_small.n_rows


class TestLUSolver:
    def test_solve_residual(self, rng, unsym_small):
        solver = SparseSolver(unsym_small, kind="lu")
        b = rng.standard_normal(unsym_small.n_rows)
        x = solver.solve(b)
        assert solver.residual_norm(unsym_small, x, b) < 1e-11

    def test_matches_dense_solve(self, rng, unsym_random):
        solver = SparseSolver(unsym_random, kind="lu")
        b = rng.standard_normal(unsym_random.n_rows)
        x = solver.solve(b)
        want = np.linalg.solve(unsym_random.to_dense(), b)
        assert np.allclose(x, want, atol=1e-9)

    def test_zero_diagonal_handled_by_pivoting(self, rng):
        dense = np.array([
            [0.0, 5.0, 0.1],
            [4.0, 0.0, 0.0],
            [0.2, 0.1, 6.0],
        ])
        m = CSCMatrix.from_dense(dense)
        solver = SparseSolver(m, kind="lu")
        b = rng.standard_normal(3)
        assert np.allclose(solver.solve(b), np.linalg.solve(dense, b))

    def test_lu_on_spd_matrix(self, rng, spd_small):
        solver = SparseSolver(spd_small, kind="lu")
        b = rng.standard_normal(spd_small.n_rows)
        assert solver.residual_norm(spd_small, solver.solve(b), b) < 1e-12


class TestRefactorize:
    def test_same_pattern_new_values(self, rng):
        a1 = grid_laplacian_2d(6, seed=1)
        solver = SparseSolver(a1)
        a2 = grid_laplacian_2d(6, seed=1)
        a2.data = a2.data * 2.0
        solver.refactorize(a2)
        b = rng.standard_normal(a2.n_rows)
        assert solver.residual_norm(a2, solver.solve(b), b) < 1e-12

    def test_refactorize_lu(self, rng):
        a1 = circuit_like(64, seed=2)
        solver = SparseSolver(a1, kind="lu")
        a2 = CSCMatrix(a1.n_rows, a1.n_cols, a1.indptr.copy(),
                       a1.indices.copy(), a1.data * 1.7)
        solver.refactorize(a2)
        b = rng.standard_normal(a2.n_rows)
        assert solver.residual_norm(a2, solver.solve(b), b) < 1e-11

    def test_pattern_change_rejected(self):
        solver = SparseSolver(grid_laplacian_2d(5, seed=1))
        other = grid_laplacian_2d(5, 6, seed=1)
        with pytest.raises(ValueError):
            solver.refactorize(other)

    def test_timestep_loop(self, rng):
        # The Figure 2 application loop: analyze once, refactor + solve
        # many times as values drift.
        base = grid_laplacian_3d(4, seed=3)
        solver = SparseSolver(base, kind="cholesky")
        current = base
        for step in range(4):
            scaled = CSCMatrix(
                current.n_rows, current.n_cols, current.indptr.copy(),
                current.indices.copy(), current.data * (1.0 + 0.1 * step),
            )
            solver.refactorize(scaled)
            b = rng.standard_normal(base.n_rows)
            assert solver.residual_norm(scaled, solver.solve(b), b) < 1e-12
            current = scaled


class TestValidation:
    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            SparseSolver(CSCMatrix.from_dense(np.ones((2, 3))))

    def test_rejects_unknown_kind(self, spd_small):
        with pytest.raises(ValueError):
            SparseSolver(spd_small, kind="ldl")

    def test_symbolic_exposed(self, spd_small):
        solver = SparseSolver(spd_small)
        assert solver.symbolic.n == spd_small.n_rows
        assert solver.symbolic.flops > 0

    @pytest.mark.parametrize("kind", ["cholesky", "lu"])
    def test_rejects_values_that_do_not_fill_the_pattern(self, rng, kind):
        matrix = grid_laplacian_3d(4, seed=1)
        short = CSCMatrix(matrix.n_rows, matrix.n_cols, matrix.indptr,
                          matrix.indices, matrix.data[:-1])
        with pytest.raises(ValueError, match=f"{matrix.nnz - 1} values "
                           f"for {matrix.nnz} stored entries"):
            SparseSolver(short, kind=kind)
        solver = SparseSolver(matrix, kind=kind)
        b = rng.standard_normal(matrix.n_rows)
        before = solver.solve(b)
        with pytest.raises(ValueError, match=f"{matrix.nnz - 1} values "
                           f"for {matrix.nnz} stored entries"):
            solver.refactorize(short)
        # The solver still solves with its previous factor.
        assert np.array_equal(solver.solve(b), before)

    def test_rejects_complex_rhs(self, spd_small):
        solver = SparseSolver(spd_small)
        for b in (1j * np.ones(spd_small.n_rows),
                  np.ones((spd_small.n_rows, 2), dtype=complex)):
            with pytest.raises(ValueError, match="must be real"):
                solver.solve(b)

    @pytest.mark.parametrize("kind", ["cholesky", "lu"])
    def test_rejects_empty_matrix(self, kind):
        empty = CSCMatrix(0, 0, np.zeros(1, dtype=np.int64),
                          np.zeros(0, dtype=np.int64), np.zeros(0))
        with pytest.raises(ValueError, match="non-empty"):
            SparseSolver(empty, kind=kind)


class TestMultiRHS:
    def test_matrix_rhs_cholesky(self, rng, spd_small):
        solver = SparseSolver(spd_small)
        b = rng.standard_normal((spd_small.n_rows, 4))
        x = solver.solve(b)
        assert x.shape == b.shape
        want = np.linalg.solve(spd_small.to_dense(), b)
        assert np.allclose(x, want)

    def test_matrix_rhs_lu(self, rng, unsym_small):
        solver = SparseSolver(unsym_small, kind="lu")
        b = rng.standard_normal((unsym_small.n_rows, 3))
        x = solver.solve(b)
        want = np.linalg.solve(unsym_small.to_dense(), b)
        assert np.allclose(x, want, atol=1e-9)

    def test_bad_ndim_rejected(self, rng, spd_small):
        solver = SparseSolver(spd_small)
        with pytest.raises(ValueError):
            solver.solve(rng.standard_normal((2, 2, 2)))


class TestFailureModes:
    def test_indefinite_matrix_raises_clearly(self):
        dense = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError, match="pivot"):
            SparseSolver(CSCMatrix.from_dense(dense), kind="cholesky")

    def test_structurally_singular_lu_raises(self):
        dense = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="singular"):
            SparseSolver(CSCMatrix.from_dense(dense), kind="lu")

    def test_numerically_tough_lu_survives_via_perturbation(self, rng):
        # Structurally fine but with a tiny pivot the static ordering
        # cannot avoid: the perturbation + refinement path must cope.
        dense = np.array([
            [1e-18, 2.0, 0.0],
            [2.0, 1e-18, 1.0],
            [0.0, 1.0, 3.0],
        ])
        m = CSCMatrix.from_dense(dense)
        solver = SparseSolver(m, kind="lu")
        b = rng.standard_normal(3)
        result = solver.solve_refined(m, b, tolerance=1e-10)
        assert result.residual_norm < 1e-8

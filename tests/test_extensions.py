"""Tests for extension features: supernodal solves, iterative refinement,
FIFO-vs-postorder scheduling, and the load-balance / footprint metrics."""

import numpy as np
import pytest

from repro.arch.config import SpatulaConfig
from repro.arch.sim import simulate
from repro.numeric import (
    SparseSolver,
    cholesky_solve,
    iterative_refinement,
    lu_solve,
    multifrontal_cholesky,
    multifrontal_lu,
)
from repro.sparse import circuit_like, grid_laplacian_3d
from repro.sparse.csc import CSCMatrix
from repro.symbolic import symbolic_factorize

from .conftest import csc_solve


class TestSupernodalSolve:
    def test_cholesky_matches_dense(self, rng, spd_medium):
        sf = symbolic_factorize(spd_medium)
        factor = multifrontal_cholesky(spd_medium, sf)
        pb = rng.standard_normal(spd_medium.n_rows)
        x = cholesky_solve(factor, pb)
        want = np.linalg.solve(spd_medium.permuted(sf.perm).to_dense(), pb)
        assert np.allclose(x, want)

    def test_lu_matches_dense(self, rng, unsym_small):
        sf = symbolic_factorize(unsym_small, kind="lu")
        factors = multifrontal_lu(unsym_small, sf)
        pb = rng.standard_normal(unsym_small.n_rows)
        x = lu_solve(factors, pb)
        want = np.linalg.solve(
            unsym_small.permuted(sf.perm).to_dense(), pb
        )
        assert np.allclose(x, want, atol=1e-9)

    def test_solver_methods_agree(self, rng, spd_medium):
        solver = SparseSolver(spd_medium)
        b = rng.standard_normal(spd_medium.n_rows)
        assert np.allclose(solver.solve(b), csc_solve(solver, b))

    def test_solver_methods_agree_lu(self, rng, unsym_random):
        solver = SparseSolver(unsym_random, kind="lu")
        b = rng.standard_normal(unsym_random.n_rows)
        assert np.allclose(solver.solve(b), csc_solve(solver, b),
                           atol=1e-10)

    def test_amalgamated_factor_solves(self, rng):
        """The engine factors the symbolic analysis's amalgamated
        supernodes, one front each."""
        matrix = grid_laplacian_3d(4, seed=9)
        solver = SparseSolver(matrix)
        assert len(solver.factor.fronts) == solver.symbolic.n_supernodes
        b = rng.standard_normal(matrix.n_rows)
        x = solver.solve(b)
        assert solver.residual_norm(matrix, x, b) < 1e-12


class TestIterativeRefinement:
    def test_already_converged_stops_immediately(self, rng, spd_small):
        solver = SparseSolver(spd_small)
        b = rng.standard_normal(spd_small.n_rows)
        result = solver.solve_refined(spd_small, b)
        assert result.converged
        assert result.iterations <= 1

    def test_recovers_from_perturbed_solve(self, rng):
        # A deliberately sloppy solver: correct up to 1% multiplicative
        # noise. Refinement must still converge.
        dense = np.diag(np.arange(1.0, 9.0))
        dense[0, 7] = dense[7, 0] = 0.3
        matrix = CSCMatrix.from_dense(dense)
        exact = np.linalg.inv(dense)
        noise = rng.uniform(0.99, 1.01, 8)

        def sloppy_solve(r):
            return (exact @ r) * noise

        b = rng.standard_normal(8)
        result = iterative_refinement(matrix, sloppy_solve, b,
                                      tolerance=1e-13)
        assert result.converged
        assert result.iterations >= 1
        assert np.allclose(matrix.matvec(result.x), b, atol=1e-10)

    def test_history_monotone_until_stop(self, rng, spd_medium):
        solver = SparseSolver(spd_medium)
        b = rng.standard_normal(spd_medium.n_rows)
        result = solver.solve_refined(spd_medium, b)
        assert len(result.history) >= 1
        assert result.residual_norm <= result.history[0] + 1e-16

    def test_stagnation_detected(self):
        # A hopeless "solver" that returns garbage: refinement must stop
        # rather than loop forever.
        dense = np.eye(4) * 2.0
        matrix = CSCMatrix.from_dense(dense)

        def garbage_solve(r):
            return np.zeros_like(r)

        result = iterative_refinement(matrix, garbage_solve, np.ones(4),
                                      max_iterations=5)
        assert not result.converged
        assert result.iterations <= 5


class TestSnOrderAblation:
    def test_fifo_mode_completes_correctly(self, spd_medium):
        cfg = SpatulaConfig.tiny(sn_order="fifo")
        report = simulate(spd_medium, config=cfg, check_numerics=True)
        assert report.cycles > 0

    def test_invalid_sn_order_rejected(self):
        with pytest.raises(ValueError):
            SpatulaConfig.tiny(sn_order="random")

    def test_postorder_footprint_not_worse(self):
        # Section 5.2: the postorder min-heap minimizes live data.
        matrix = circuit_like(2000, hub_fraction=0.05, seed=3)
        reports = {}
        for sn_order in ("postorder", "fifo"):
            cfg = SpatulaConfig.paper(sn_order=sn_order)
            reports[sn_order] = simulate(matrix, kind="lu", config=cfg,
                                         ordering="amd")
        assert reports["postorder"].peak_live_front_bytes \
            <= reports["fifo"].peak_live_front_bytes

    def test_footprint_positive_and_bounded(self, spd_medium):
        report = simulate(spd_medium, config=SpatulaConfig.tiny())
        assert report.peak_live_front_bytes > 0
        total = sum(
            sn.front_size ** 2 * 8
            for sn in symbolic_factorize(spd_medium).tree.supernodes
        )
        assert report.peak_live_front_bytes <= 2 * total


class TestLoadBalance:
    def test_imbalance_at_least_one(self, spd_medium):
        report = simulate(spd_medium, config=SpatulaConfig.tiny())
        assert report.load_imbalance() >= 1.0

    def test_per_pe_busy_recorded(self, spd_medium):
        cfg = SpatulaConfig.tiny()
        report = simulate(spd_medium, config=cfg)
        assert len(report.pe_busy_cycles) == cfg.n_pes
        assert sum(report.pe_busy_cycles) == sum(
            report.busy_cycles_by_type.values()
        )

    def test_combined_policy_balances_better_than_inter(self):
        matrix = grid_laplacian_3d(6, seed=2)
        both = simulate(matrix, config=SpatulaConfig.small(), ordering="nd")
        inter = simulate(matrix,
                         config=SpatulaConfig.small(policy="inter"),
                         ordering="nd")
        assert both.load_imbalance() <= inter.load_imbalance() * 1.5

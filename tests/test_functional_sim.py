"""Tests for numeric execution inside the simulator (TileExecutor).

These are the deepest end-to-end checks in the suite: the simulator's
dynamically scheduled task stream must compute a numerically correct
factorization under every policy, emission order, and configuration.
"""

import numpy as np
import pytest

from repro.arch.config import SpatulaConfig
from repro.arch.functional import TileExecutor
from repro.arch.sim import SpatulaSim, simulate
from repro.numeric import multifrontal_cholesky, multifrontal_lu
from repro.sparse import circuit_like
from repro.sparse.csc import CSCMatrix
from repro.symbolic import symbolic_factorize
from repro.tasks.plan import build_plan


def run_checked(matrix, kind="cholesky", config=None, **symbolic_kw):
    config = config or SpatulaConfig.tiny()
    symbolic = symbolic_factorize(matrix, kind=kind, **symbolic_kw)
    plan = build_plan(symbolic, tile=config.tile,
                      supertile=config.supertile)
    executor = TileExecutor(plan, matrix)
    report = SpatulaSim(plan, config, executor=executor).run()
    return report, executor


class TestCholeskyNumerics:
    @pytest.mark.parametrize(
        "fixture", ["spd_small", "spd_medium", "spd_irregular",
                    "spd_dense_ish"]
    )
    def test_simulated_factor_correct(self, fixture, request):
        matrix = request.getfixturevalue(fixture)
        _, executor = run_checked(matrix)
        assert executor.verify() < 1e-9

    def test_matches_functional_model(self, spd_medium):
        _, executor = run_checked(spd_medium)
        symbolic = executor.plan.symbolic
        functional = multifrontal_cholesky(spd_medium, symbolic)
        sim_l = executor.factor_csc()[0].to_dense()
        ref_l = functional.to_csc()[0].to_dense()
        assert np.allclose(sim_l, ref_l, atol=1e-10)

    def test_with_amalgamation(self, spd_medium):
        _, executor = run_checked(spd_medium, relax_small=16,
                                  relax_ratio=0.6, force_small=48)
        assert executor.verify() < 1e-9

    @pytest.mark.parametrize("policy", ["intra+inter", "intra", "inter"])
    def test_all_policies_numerically_correct(self, policy, spd_medium):
        cfg = SpatulaConfig.tiny(policy=policy)
        _, executor = run_checked(spd_medium, config=cfg)
        assert executor.verify() < 1e-9

    @pytest.mark.parametrize("order", ["bf", "rowmajor"])
    def test_emission_orders_equivalent(self, order, spd_medium):
        cfg = SpatulaConfig.tiny(order=order)
        _, executor = run_checked(spd_medium, config=cfg)
        assert executor.verify() < 1e-9

    def test_dataflow_window_numerically_correct(self, spd_medium):
        cfg = SpatulaConfig.tiny(dataflow_window=16)
        _, executor = run_checked(spd_medium, config=cfg)
        assert executor.verify() < 1e-9

    def test_small_supertiles_correct(self, spd_medium):
        cfg = SpatulaConfig.tiny(supertile=2)
        _, executor = run_checked(spd_medium, config=cfg)
        assert executor.verify() < 1e-9

    def test_larger_tile_config(self, spd_medium):
        cfg = SpatulaConfig.small()  # tile=8
        _, executor = run_checked(spd_medium, config=cfg)
        assert executor.verify() < 1e-9


class TestLUNumerics:
    def test_simulated_lu_correct(self, unsym_small):
        _, executor = run_checked(unsym_small, kind="lu")
        assert executor.verify() < 1e-8

    def test_matches_functional_lu(self, unsym_small):
        _, executor = run_checked(unsym_small, kind="lu")
        symbolic = executor.plan.symbolic
        functional = multifrontal_lu(unsym_small, symbolic)
        ref_l, ref_u = functional.to_csc()
        sim_l, sim_u = executor.factor_csc()
        assert np.allclose(sim_l.to_dense(), ref_l.to_dense(), atol=1e-9)
        assert np.allclose(sim_u.to_dense(), ref_u.to_dense(), atol=1e-9)

    def test_structurally_symmetric_lu(self, spd_medium):
        _, executor = run_checked(spd_medium, kind="lu")
        assert executor.verify() < 1e-9

    def test_circuit_matrix(self):
        matrix = circuit_like(200, hub_fraction=0.1, seed=13)
        _, executor = run_checked(matrix, kind="lu")
        assert executor.verify() < 1e-8

    def test_small_pivot_bumped_like_the_solver(self):
        """The executor bumps a tiny reduced pivot by the solver's
        threshold, sqrt(eps) * max|A| — also when max|A| < 1."""
        matrix = CSCMatrix.from_dense(1e-3 * np.array(
            [[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 1.0], [0.0, 1.0, 2.0]]))
        _, executor = run_checked(matrix, kind="lu", ordering="natural")
        solver_u = multifrontal_lu(matrix, executor.plan.symbolic).to_csc()[1]
        sim_u = executor.factor_csc()[1]
        assert np.allclose(sim_u.diagonal(), solver_u.diagonal(),
                           rtol=1e-9, atol=0.0)

    def test_cholesky_factor_csc_has_no_upper(self, spd_small):
        _, executor = run_checked(spd_small)
        assert executor.factor_csc()[1] is None


class TestSimulateConvenience:
    def test_check_numerics_flag(self, spd_small):
        report = simulate(spd_small, config=SpatulaConfig.tiny(),
                          check_numerics=True)
        assert report.cycles > 0

    def test_executor_counts_all_tasks(self, spd_medium):
        report, executor = run_checked(spd_medium)
        assert executor.tasks_executed == report.n_tasks

    def test_verify_detects_corruption(self, spd_small):
        _, executor = run_checked(spd_small)
        # Corrupt one pivot tile and ensure verification fails.
        some_ref = next(
            ref for ref in executor._tiles
            if ref.block_col == 0 and ref.block_row == 0
        )
        executor._tiles[some_ref][0, 0] += 1.0
        with pytest.raises(AssertionError):
            executor.verify()

    def test_timing_unaffected_by_execution(self, spd_medium):
        cfg = SpatulaConfig.tiny()
        plain = simulate(spd_medium, config=cfg)
        checked = simulate(spd_medium, config=cfg, check_numerics=True)
        assert plain.cycles == checked.cycles

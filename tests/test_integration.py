"""End-to-end integration tests crossing all layers."""


from repro import SparseSolver, SpatulaConfig, simulate, symbolic_factorize
from repro.arch.sim import SpatulaSim
from repro.baselines import CPUModel, GPUModel
from repro.sparse import get_matrix, grid_laplacian_3d
from repro.tasks.plan import build_plan


class TestPublicAPI:
    def test_quickstart_flow(self, rng):
        # The README quickstart, as a test.
        A = grid_laplacian_3d(4, seed=0)
        solver = SparseSolver(A, kind="cholesky")
        b = rng.standard_normal(A.n_rows)
        x = solver.solve(b)
        assert solver.residual_norm(A, x, b) < 1e-12
        report = simulate(A, kind="cholesky", config=SpatulaConfig.tiny())
        assert report.achieved_tflops > 0

    def test_version_and_exports(self):
        import repro

        assert repro.__version__
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None


class TestSimulatorVsBaselinesEndToEnd:
    def test_spatula_beats_both_baselines_on_suite_matrix(self):
        matrix = get_matrix("bmwcra_1", scale=0.3)
        sf = symbolic_factorize(matrix, kind="cholesky", ordering="nd",
                                relax_small=32, relax_ratio=0.5,
                                force_small=64)
        cfg = SpatulaConfig.paper()
        plan = build_plan(sf, tile=cfg.tile, supertile=cfg.supertile)
        report = SpatulaSim(plan, cfg).run()
        gpu = GPUModel().run(sf)
        cpu = CPUModel().run(sf)
        assert report.seconds < gpu.seconds
        assert report.seconds < cpu.seconds

    def test_symbolic_reuse_across_sim_and_solver(self, rng):
        matrix = grid_laplacian_3d(4, seed=2)
        sf = symbolic_factorize(matrix, kind="cholesky")
        # Same analysis drives the functional solve and the simulator.
        report = simulate(matrix, config=SpatulaConfig.tiny(), symbolic=sf)
        assert report.algorithmic_flops == sf.flops
        solver = SparseSolver(matrix)
        b = rng.standard_normal(matrix.n_rows)
        assert solver.residual_norm(matrix, solver.solve(b), b) < 1e-12


class TestScalingBehaviour:
    def test_more_work_more_cycles(self):
        small = simulate(grid_laplacian_3d(3, seed=1),
                         config=SpatulaConfig.tiny(), ordering="nd")
        big = simulate(grid_laplacian_3d(5, seed=1),
                       config=SpatulaConfig.tiny(), ordering="nd")
        assert big.cycles > small.cycles
        assert big.algorithmic_flops > small.algorithmic_flops

    def test_utilization_improves_with_matrix_size(self):
        cfg = SpatulaConfig.small()
        small = simulate(grid_laplacian_3d(4, seed=1), config=cfg,
                         ordering="nd")
        big = simulate(grid_laplacian_3d(8, seed=1), config=cfg,
                       ordering="nd")
        assert big.utilization > small.utilization

    def test_scaled_configs_ranked_by_peak(self):
        matrix = grid_laplacian_3d(6, seed=3)
        sf = symbolic_factorize(matrix, ordering="nd")
        seconds = {}
        for name, cfg in [("tiny", SpatulaConfig.tiny()),
                          ("small", SpatulaConfig.small())]:
            plan = build_plan(sf, tile=cfg.tile, supertile=cfg.supertile)
            seconds[name] = SpatulaSim(plan, cfg).run().seconds
        assert seconds["small"] < seconds["tiny"]


class TestFunctionalTimingConsistency:
    def test_sim_work_matches_functional_factor(self):
        """The simulator executes exactly the supernodes/tiles the
        functional factorization touches."""
        matrix = grid_laplacian_3d(4, seed=4)
        sf = symbolic_factorize(matrix)
        cfg = SpatulaConfig.tiny()
        plan = build_plan(sf, tile=cfg.tile, supertile=cfg.supertile)
        report = SpatulaSim(plan, cfg).run()
        assert report.n_supernodes == sf.n_supernodes
        from repro.numeric import multifrontal_cholesky

        factor = multifrontal_cholesky(matrix, sf)
        # The engine factors on its execution tree: every front of it is
        # a contiguous run of whole simulated supernodes.
        starts = {sn.first_col for sn in sf.tree.supernodes}
        ends = {sn.last_col for sn in sf.tree.supernodes}
        assert all(rows[0] in starts and rows[block.shape[1] - 1] in ends
                   for rows, block in factor.columns)
        assert sum(block.shape[1] for _, block in factor.columns) \
            == matrix.n_rows

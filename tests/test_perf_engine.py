"""Tests for the parallel blocked numeric engine.

Covers the blocked BLAS-3 dense kernels against per-pivot oracles, the
bit-identical level-scheduled parallel traversal, blocked multi-RHS panel
solves against column-by-column oracles, the pattern-keyed analysis
cache, and the per-call knobs.
"""

import numpy as np
import pytest

from repro.numeric import SparseSolver
from repro.numeric.cache import AnalysisCache, analysis_cache, pattern_digest
from repro.numeric.cholesky import multifrontal_cholesky
from repro.numeric.dense import cholesky_front, partial_cholesky, partial_lu
from repro.numeric.engine import numeric_context
from repro.numeric.lu import multifrontal_lu
from repro.obs.metrics import global_registry, reset_global_registry
from repro.sparse import circuit_like, grid_laplacian_2d, grid_laplacian_3d
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import symbolic_factorize
from repro.symbolic.etree import etree_level_sets

from .conftest import csc_solve


def _random_spd_dense(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _blocked_cholesky(a, block):
    """L of ``a`` by the square-front Cholesky kernel in panels of
    ``block`` columns."""
    return np.tril(partial_cholesky(np.array(a), len(a), block=block))


def _reference_cholesky(a):
    """Unblocked per-pivot Cholesky oracle."""
    f = np.array(a, dtype=np.float64)
    n = f.shape[0]
    for j in range(n):
        f[j, j] = np.sqrt(f[j, j])
        f[j + 1:, j] /= f[j, j]
        for k in range(j + 1, n):
            f[k:, k] -= f[k:, j] * f[k, j]
    return np.tril(f)


class TestBlockedDenseKernels:
    """Blocked kernels agree with per-pivot oracles at every block size."""

    @pytest.mark.parametrize("n", [1, 5, 31, 32, 33, 70])
    @pytest.mark.parametrize("block", [1, 8, 32, 48, 200])
    def test_dense_cholesky_blocked(self, rng, n, block):
        a = _random_spd_dense(n, rng)
        lower = _blocked_cholesky(a, block)
        assert np.allclose(lower @ lower.T, a, atol=1e-8 * n)
        assert np.allclose(np.triu(lower, 1), 0.0)

    @pytest.mark.parametrize("n", [1, 5, 31, 32, 33, 70])
    @pytest.mark.parametrize("block", [1, 8, 32, 48, 200])
    def test_dense_lu_blocked(self, rng, n, block):
        a = _random_spd_dense(n, rng)  # diagonally dominant: no pivoting
        f = partial_lu(a.copy(), n, block=block)
        lower, upper = np.tril(f, -1) + np.eye(n), np.triu(f)
        assert np.allclose(lower @ upper, a, atol=1e-8 * n)
        assert np.allclose(np.diag(lower), 1.0)

    def test_block_size_does_not_change_cholesky(self, rng):
        a = _random_spd_dense(64, rng)
        reference = _reference_cholesky(a)
        for block in (1, 7, 16, 64, 128):
            assert np.allclose(_blocked_cholesky(a, block), reference,
                               rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_pivots", [1, 10, 24, 25])
    def test_partial_cholesky_blocked_matches_unblocked(self, rng,
                                                        n_pivots):
        a = _random_spd_dense(40, rng)
        blocked = a.copy()
        partial_cholesky(blocked, n_pivots, block=8)
        unblocked = a.copy()
        partial_cholesky(unblocked, n_pivots, block=1)
        # Pivot columns and the (lower-triangle) Schur complement agree.
        assert np.allclose(np.tril(blocked)[:, :n_pivots],
                           np.tril(unblocked)[:, :n_pivots],
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(
            np.tril(blocked[n_pivots:, n_pivots:]),
            np.tril(unblocked[n_pivots:, n_pivots:]),
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_pivots", [1, 10, 24, 25])
    def test_partial_lu_blocked_matches_unblocked(self, rng, n_pivots):
        a = _random_spd_dense(40, rng)
        blocked = a.copy()
        partial_lu(blocked, n_pivots, block=8)
        unblocked = a.copy()
        partial_lu(unblocked, n_pivots, block=1)
        assert np.allclose(blocked, unblocked, rtol=1e-12, atol=1e-12)

    def test_non_spd_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError, match="non-SPD"):
            _blocked_cholesky(a, 16)

    @pytest.mark.parametrize("k", [1, 3, 17])
    def test_dense_triangular_panels(self, rng, k):
        # The tsolve of a 50-pivot Cholesky front with k update rows, in
        # panels: L21^T = L11^-1 B.
        n = 50
        tri = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
        b = rng.standard_normal((n, k))
        panel = np.vstack((tri @ tri.T, b.T))
        cholesky_front(panel, np.zeros((k, k)), block=16)
        assert np.allclose(tri @ panel[n:].T, b, atol=1e-10)


class TestLevelSets:
    def test_level_sets_partition_and_order(self):
        matrix = grid_laplacian_3d(4, seed=0)
        sf = symbolic_factorize(matrix, kind="cholesky")
        parent = np.array([sn.parent for sn in sf.tree.supernodes])
        levels = etree_level_sets(parent)
        seen = np.concatenate(levels)
        assert sorted(seen) == list(range(len(parent)))
        # Every node's children appear in strictly earlier levels.
        level_of = np.empty(len(parent), dtype=int)
        for depth, level in enumerate(levels):
            level_of[level] = depth
        for node, par in enumerate(parent):
            if par >= 0:
                assert level_of[node] < level_of[par]

    def test_empty(self):
        assert etree_level_sets(np.array([], dtype=np.int64)) == []


class TestParallelDeterminism:
    """workers=N is bit-identical to the sequential traversal."""

    def test_cholesky_workers_bit_identical(self):
        matrix = grid_laplacian_3d(6, seed=9)
        sf = symbolic_factorize(matrix, kind="cholesky")
        serial = multifrontal_cholesky(matrix, sf, workers=1)
        parallel = multifrontal_cholesky(matrix, sf, workers=4)
        for (r1, b1, _), (r2, b2, _) in zip(serial.fronts, parallel.fronts):
            assert np.array_equal(r1, r2)
            assert np.array_equal(b1, b2)  # bitwise, not allclose

    def test_lu_workers_bit_identical(self):
        matrix = circuit_like(300, seed=11)
        from repro.ordering.pivoting import apply_static_pivoting

        work, _ = apply_static_pivoting(matrix)
        sf = symbolic_factorize(work, kind="lu")
        serial = multifrontal_lu(work, sf, workers=1)
        parallel = multifrontal_lu(work, sf, workers=4)
        assert serial.perturbed_pivots == parallel.perturbed_pivots
        for (r1, l1, u1), (r2, l2, u2) in zip(serial.fronts,
                                              parallel.fronts):
            assert np.array_equal(r1, r2)
            assert np.array_equal(l1, l2)
            assert np.array_equal(u1, u2)

    def test_solver_workers_end_to_end(self, spd_medium):
        b = np.arange(spd_medium.n_rows, dtype=np.float64)
        x1 = SparseSolver(spd_medium, workers=1, use_cache=False).solve(b)
        x4 = SparseSolver(spd_medium, workers=4, use_cache=False).solve(b)
        assert np.array_equal(x1, x4)


def _solve(solver, b, method):
    """The solver's supernodal solve, or the CSC substitution oracle."""
    return solver.solve(b) if method == "supernodal" else csc_solve(solver,
                                                                    b)


class TestBlockedMultiRHS:
    """(n, k) right-hand sides match the column-by-column oracle."""

    @pytest.mark.parametrize("method", ["supernodal", "csc"])
    def test_cholesky_panel_matches_columns(self, spd_medium, method):
        solver = SparseSolver(spd_medium, use_cache=False)
        rng = np.random.default_rng(0)
        b = rng.standard_normal((spd_medium.n_rows, 7))
        panel = _solve(solver, b, method)
        assert panel.shape == b.shape
        for j in range(b.shape[1]):
            xj = _solve(solver, b[:, j], method)
            assert np.allclose(panel[:, j], xj, rtol=1e-12, atol=1e-12)
        assert max(
            solver.residual_norm(spd_medium, panel[:, j], b[:, j])
            for j in range(b.shape[1])
        ) < 1e-10

    @pytest.mark.parametrize("method", ["supernodal", "csc"])
    def test_lu_panel_matches_columns(self, unsym_small, method):
        solver = SparseSolver(unsym_small, kind="lu", use_cache=False)
        rng = np.random.default_rng(1)
        b = rng.standard_normal((unsym_small.n_rows, 5))
        panel = _solve(solver, b, method)
        for j in range(b.shape[1]):
            xj = _solve(solver, b[:, j], method)
            assert np.allclose(panel[:, j], xj, rtol=1e-12, atol=1e-12)

    def test_bad_shapes_rejected(self, spd_small):
        solver = SparseSolver(spd_small, use_cache=False)
        with pytest.raises(ValueError):
            solver.solve(np.ones((spd_small.n_rows, 2, 2)))
        with pytest.raises(ValueError):
            solver.solve(np.ones(spd_small.n_rows + 1))


class TestRefactorize:
    def test_refactorize_matches_fresh_solver(self, spd_medium):
        solver = SparseSolver(spd_medium, use_cache=False)
        # Same pattern, shifted values (still SPD).
        shifted = CSCMatrix(
            spd_medium.n_rows, spd_medium.n_cols,
            spd_medium.indptr.copy(), spd_medium.indices.copy(),
            spd_medium.data * 1.0,
        )
        shifted.data = shifted.data.copy()
        diag_mask = np.repeat(
            np.arange(spd_medium.n_cols), np.diff(spd_medium.indptr)
        ) == spd_medium.indices
        shifted.data[diag_mask] += 1.5
        solver.refactorize(shifted)
        fresh = SparseSolver(shifted, use_cache=False)
        b = np.linspace(-1.0, 1.0, spd_medium.n_rows)
        assert np.allclose(solver.solve(b), fresh.solve(b),
                           rtol=1e-12, atol=1e-12)

    def test_refactorize_lu_no_coo_round_trip(self, unsym_small):
        solver = SparseSolver(unsym_small, kind="lu", use_cache=False)
        scaled = CSCMatrix(
            unsym_small.n_rows, unsym_small.n_cols,
            unsym_small.indptr.copy(), unsym_small.indices.copy(),
            unsym_small.data * 1.25,
        )
        solver.refactorize(scaled)
        fresh = SparseSolver(scaled, kind="lu", use_cache=False)
        b = np.sin(np.arange(unsym_small.n_rows, dtype=np.float64))
        assert np.allclose(solver.solve(b), fresh.solve(b),
                           rtol=1e-10, atol=1e-12)

    def test_pattern_change_rejected(self, spd_small):
        solver = SparseSolver(spd_small, use_cache=False)
        other = grid_laplacian_2d(8, seed=3)
        with pytest.raises(ValueError, match="pattern changed"):
            solver.refactorize(other)


class TestAnalysisCache:
    def test_digest_distinguishes_patterns(self, spd_small, spd_medium):
        assert pattern_digest(spd_small) == pattern_digest(spd_small)
        assert pattern_digest(spd_small) != pattern_digest(spd_medium)

    def test_hit_returns_same_analysis(self, spd_medium):
        cache = AnalysisCache()
        a = cache.get_or_analyze(spd_medium, "cholesky", "amd")
        b = cache.get_or_analyze(spd_medium, "cholesky", "amd")
        assert a is b
        assert cache.hits == 1 and cache.misses == 1

    def test_key_includes_parameters(self, spd_medium):
        cache = AnalysisCache()
        a = cache.get_or_analyze(spd_medium, "cholesky", "amd")
        b = cache.get_or_analyze(spd_medium, "cholesky", "nd")
        assert a is not b
        assert cache.misses == 2

    def test_lru_eviction(self, spd_small, spd_medium, spd_irregular):
        cache = AnalysisCache(capacity=2)
        cache.get_or_analyze(spd_small, "cholesky", "amd")
        cache.get_or_analyze(spd_medium, "cholesky", "amd")
        cache.get_or_analyze(spd_irregular, "cholesky", "amd")
        assert len(cache) == 2
        cache.get_or_analyze(spd_small, "cholesky", "amd")  # evicted: miss
        assert cache.misses == 4

    def test_solver_cache_hit_is_numerically_identical(self, spd_medium):
        analysis_cache().clear()
        reset_global_registry()
        cold = SparseSolver(spd_medium, use_cache=True)
        warm = SparseSolver(spd_medium, use_cache=True)
        assert warm.symbolic is cold.symbolic
        snap = global_registry().snapshot()
        assert snap["numeric.analysis_cache.hits"] >= 1
        b = np.cos(np.arange(spd_medium.n_rows, dtype=np.float64))
        assert np.array_equal(cold.solve(b), warm.solve(b))
        # And equal to the cache-bypassing solver.
        no_cache = SparseSolver(spd_medium, use_cache=False)
        assert np.allclose(warm.solve(b), no_cache.solve(b),
                           rtol=1e-12, atol=1e-12)


class TestTuning:
    def test_tuned_block_size_changes_nothing_numerically(self,
                                                          spd_medium):
        sf = symbolic_factorize(spd_medium, kind="cholesky")
        f_small = multifrontal_cholesky(spd_medium, sf, block_size=4)
        f_large = multifrontal_cholesky(spd_medium, sf, block_size=96)
        # The strict upper triangle of a pivot block is unspecified.
        for (_, b1, _), (_, b2, _) in zip(f_small.fronts, f_large.fronts):
            assert np.allclose(np.tril(b1), np.tril(b2), rtol=1e-12,
                               atol=1e-12)


class TestNumericContextMetrics:
    def test_context_cached_on_symbolic(self, spd_medium):
        sf = symbolic_factorize(spd_medium, kind="cholesky")
        ctx1 = numeric_context(sf, spd_medium)
        ctx2 = numeric_context(sf, spd_medium)
        assert ctx1 is ctx2

    def test_pattern_mismatch_detected(self, spd_small, spd_medium):
        sf = symbolic_factorize(spd_medium, kind="cholesky")
        with pytest.raises(ValueError, match="does not match"):
            numeric_context(sf, spd_small)
        # a cached context for another pattern is rebuilt, not misused
        numeric_context(sf, spd_medium)

    def test_factor_metrics_exported(self, spd_medium):
        reset_global_registry()
        sf = symbolic_factorize(spd_medium, kind="cholesky")
        multifrontal_cholesky(spd_medium, sf)
        snap = global_registry().snapshot()
        assert snap["numeric.factor.count"] == 1
        assert snap["numeric.factor.flops"] == sf.flops
        assert snap["numeric.levels.count"] >= 1

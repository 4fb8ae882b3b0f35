"""Property-based tests (hypothesis) on core data structures and
invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.numeric.dense import (
    dense_cholesky,
    dense_lu_nopivot,
    tsolve_lower,
)
from repro.numeric import SparseSolver
from repro.ordering import minimum_degree, rcm
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.symbolic.csq import CSQMatrix
from repro.symbolic.etree import elimination_tree, postorder, NO_PARENT
from repro.symbolic.structure import column_structures
from repro.symbolic.tiling import TileGrid, tile_index
from repro.symbolic import symbolic_factorize
from repro.verify.generators import (
    duplicate_entry_coo,
    ill_conditioned_spd,
    near_singular_spd,
    random_spd as fuzz_random_spd,
)
from repro.verify.oracle import backward_error, backward_tolerance


# -- strategies ----------------------------------------------------------------
#
# SPD strategies delegate to the shared fuzzer builders in
# repro.verify.generators (hypothesis draws the size/seed/conditioning
# knobs); sizes are deliberately larger than the original hand-rolled
# strategies, with explicit per-test @settings so tier-1 stays fast.
# ``deadline=None`` is set explicitly everywhere: individual examples
# include factorizations whose first-call cost (analysis cache warmup)
# would otherwise trip hypothesis's per-example deadline on slow CI.

@st.composite
def coo_matrices(draw, max_n=12, square=True):
    n_rows = draw(st.integers(1, max_n))
    n_cols = n_rows if square else draw(st.integers(1, max_n))
    nnz = draw(st.integers(0, n_rows * n_cols))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=nnz,
                         max_size=nnz))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz,
                         max_size=nnz))
    vals = draw(st.lists(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        min_size=nnz, max_size=nnz,
    ))
    return COOMatrix(n_rows, n_cols, rows, cols, vals)


@st.composite
def spd_matrices(draw, max_n=16):
    """Random sparse SPD matrices (shared fuzzer builder; hypothesis
    drives size, density, and the generator seed)."""
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    seed = draw(st.integers(0, 2 ** 16))
    return fuzz_random_spd(np.random.default_rng(seed), n, density=density)


@st.composite
def adversarial_spd_matrices(draw, max_n=16):
    """SPD matrices across conditioning regimes: well-conditioned,
    ill-conditioned (symmetric scaling), and near-singular (shifted
    Laplacian) — the fuzzer families, driven by hypothesis."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    family = draw(st.sampled_from(["plain", "ill", "near_singular"]))
    if family == "ill":
        return ill_conditioned_spd(
            rng, n, log_cond=draw(st.sampled_from([4.0, 8.0])))
    if family == "near_singular":
        return near_singular_spd(
            rng, n, shift=10.0 ** draw(st.integers(-9, -6)))
    return fuzz_random_spd(rng, n)


# -- COO / CSC properties ------------------------------------------------------

@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_coo_csc_roundtrip_preserves_values(coo):
    dense = coo.to_dense()
    assert np.allclose(CSCMatrix.from_coo(coo).to_dense(), dense)


@given(coo_matrices(square=False))
@settings(max_examples=60, deadline=None)
def test_transpose_involution(coo):
    assert np.allclose(coo.transpose().transpose().to_dense(),
                       coo.to_dense())


@given(coo_matrices(), st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_permutation_preserves_multiset_of_values(coo, seed):
    perm = np.random.default_rng(seed).permutation(coo.n_rows)
    permuted = coo.permuted(perm)
    assert np.allclose(
        sorted(permuted.deduplicated().vals.tolist()),
        sorted(coo.deduplicated().vals.tolist()),
    )


@given(coo_matrices())
@settings(max_examples=60, deadline=None)
def test_csc_validate_never_fails_on_from_coo(coo):
    CSCMatrix.from_coo(coo).validate()


@given(coo_matrices(square=False), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_matvec_matches_dense(coo, seed):
    m = CSCMatrix.from_coo(coo)
    x = np.random.default_rng(seed).standard_normal(m.n_cols)
    assert np.allclose(m.matvec(x), m.to_dense() @ x)


# -- etree / symbolic properties --------------------------------------------------

@given(spd_matrices())
@settings(max_examples=40, deadline=None)
def test_etree_parent_above_child(matrix):
    parent = elimination_tree(matrix)
    for j, p in enumerate(parent):
        assert p == NO_PARENT or p > j


@given(spd_matrices())
@settings(max_examples=40, deadline=None)
def test_postorder_is_valid(matrix):
    parent = elimination_tree(matrix)
    post = postorder(parent)
    position = np.empty(len(parent), dtype=np.int64)
    position[post] = np.arange(len(parent))
    for j, p in enumerate(parent):
        if p != NO_PARENT:
            assert position[j] < position[p]


@given(spd_matrices())
@settings(max_examples=30, deadline=None)
def test_structures_contain_matrix_pattern(matrix):
    parent = elimination_tree(matrix)
    structs = column_structures(matrix, parent)
    for j in range(matrix.n_cols):
        below = matrix.col_rows(j)
        below = below[below >= j]
        assert not len(np.setdiff1d(below, structs[j], assume_unique=True))


@given(spd_matrices())
@settings(max_examples=25, deadline=None)
def test_symbolic_tree_always_validates(matrix):
    sf = symbolic_factorize(matrix, kind="cholesky")
    sf.tree.validate()
    assert sf.factor_nnz >= matrix.lower_triangle().nnz


@given(spd_matrices(), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_solver_residual_always_small(matrix, seed):
    solver = SparseSolver(matrix, kind="cholesky")
    b = np.random.default_rng(seed).standard_normal(matrix.n_rows)
    x = solver.solve(b)
    assert solver.residual_norm(matrix, x, b) < 1e-10


@given(adversarial_spd_matrices(), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_solver_backward_stable_on_adversarial_spd(matrix, seed):
    """Backward error is O(n * eps) regardless of conditioning — the
    residual bound above does not hold near the conditioning cliff, but
    this one must."""
    solver = SparseSolver(matrix, kind="cholesky")
    b = np.random.default_rng(seed).standard_normal(matrix.n_rows)
    x = solver.solve(b)
    assert backward_error(matrix, x, b) <= backward_tolerance(matrix.n_rows)


@given(st.integers(2, 14), st.integers(0, 2 ** 16))
@settings(max_examples=30, deadline=None)
def test_duplicate_coo_assembly_matches_reference(n, seed):
    """Assembly-style duplicated COO input always reduces to its
    deduplicated reference (up to summation-order roundoff)."""
    coo, reference = duplicate_entry_coo(np.random.default_rng(seed), n)
    assert np.allclose(coo.to_csc().to_dense(), reference.to_dense(),
                       rtol=0.0, atol=1e-13)


# -- ordering properties ------------------------------------------------------

@given(spd_matrices())
@settings(max_examples=30, deadline=None)
def test_orderings_are_permutations(matrix):
    for perm in (minimum_degree(matrix), rcm(matrix)):
        assert sorted(perm.tolist()) == list(range(matrix.n_rows))


# -- dense kernel properties -----------------------------------------------------

@given(st.integers(1, 12), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_cholesky_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a @ a.T + n * np.eye(n)
    lower = dense_cholesky(a)
    assert np.allclose(lower @ lower.T, a, atol=1e-9)


@given(st.integers(1, 10), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_lu_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    lower, upper = dense_lu_nopivot(a)
    assert np.allclose(lower @ upper, a, atol=1e-9)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_tsolve_solves(rows, cols, seed):
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.standard_normal((cols, cols))) + cols * np.eye(cols)
    block = rng.standard_normal((rows, cols))
    x = tsolve_lower(block, lower)
    assert np.allclose(x @ lower.T, block, atol=1e-9)


# -- CSQ properties ----------------------------------------------------------------

@given(st.data())
@settings(max_examples=40, deadline=None)
def test_extend_add_commutes_with_dense(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    n = data.draw(st.integers(2, 10))
    parent_coords = np.sort(rng.choice(20, size=n, replace=False))
    k = data.draw(st.integers(1, n))
    child_coords = np.sort(rng.choice(parent_coords, size=k, replace=False))
    parent = CSQMatrix(parent_coords, rng.standard_normal((n, n)))
    child = CSQMatrix(child_coords, rng.standard_normal((k, k)))
    dense_parent = np.zeros((20, 20))
    parent.scatter_into_dense(dense_parent)
    dense_child = np.zeros((20, 20))
    child.scatter_into_dense(dense_child)
    parent.extend_add(child)
    combined = np.zeros((20, 20))
    parent.scatter_into_dense(combined)
    assert np.allclose(combined, dense_parent + dense_child)


# -- tiling properties ---------------------------------------------------------------

@given(st.integers(1, 500), st.integers(2, 32))
@settings(max_examples=60, deadline=None)
def test_tile_blocks_cover_front(front, tile):
    grid = TileGrid(front_size=front, n_pivot_cols=front, tile=tile,
                    supertile=4)
    total = sum(grid.block_dim(b) for b in range(grid.n_blocks))
    assert total == front
    assert grid.n_blocks == tile_index(front, tile)
    # Pivot columns are covered exactly once.
    pivots = sum(grid.pivots_in_block(b) for b in range(grid.n_blocks))
    assert pivots == front


@given(st.integers(1, 300), st.integers(1, 300), st.integers(2, 32))
@settings(max_examples=60, deadline=None)
def test_pivot_block_count_consistent(front, pivots, tile):
    pivots = min(front, pivots)
    grid = TileGrid(front_size=front, n_pivot_cols=pivots, tile=tile,
                    supertile=8)
    covered = sum(grid.pivots_in_block(b)
                  for b in range(grid.n_pivot_blocks))
    assert covered == pivots


# -- simulator fuzzing --------------------------------------------------------

@given(spd_matrices(max_n=14), st.sampled_from(["intra+inter", "inter"]),
       st.sampled_from(["bf", "rowmajor"]))
@settings(max_examples=15, deadline=None)
def test_simulator_numerics_fuzz(matrix, policy, order):
    """Any SPD matrix, scheduled any way, must factor correctly in the
    simulator's numeric-execution mode."""
    from repro.arch.config import SpatulaConfig
    from repro.arch.sim import simulate

    config = SpatulaConfig.tiny(policy=policy, order=order)
    report = simulate(matrix, config=config, check_numerics=True)
    assert report.n_tasks > 0


@given(spd_matrices(max_n=12), st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_simulator_flop_conservation_fuzz(matrix, n_pes):
    """Machine FLOPs executed are invariant to the PE count."""
    from repro.arch.config import SpatulaConfig
    from repro.arch.sim import simulate

    reports = [
        simulate(matrix, config=SpatulaConfig.tiny(n_pes=k, cache_banks=2))
        for k in (1, n_pes)
    ]
    assert reports[0].machine_flops == reports[1].machine_flops

"""Tests for fill-reducing orderings and static pivoting."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import (
    connected_components,
    reverse_cuthill_mckee,
    shortest_path,
)

from repro.ordering import (
    fill_reducing_ordering,
    minimum_degree,
    nested_dissection,
    rcm,
    static_pivoting,
)
from repro.ordering.graph import (
    bfs_levels,
    pattern_graph,
    pseudo_peripheral_vertex,
)
from repro.ordering.pivoting import apply_static_pivoting
from repro.sparse import (
    banded_spd,
    circuit_like,
    grid_laplacian_2d,
    grid_laplacian_3d,
    power_law_spd,
)
from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import elimination_tree
from repro.symbolic.structure import factor_nnz


def bandwidth(matrix, perm):
    coo = matrix.permuted(perm).to_coo()
    off = coo.rows != coo.cols
    if not off.any():
        return 0
    return int(np.abs(coo.rows[off] - coo.cols[off]).max())


def fill_of(matrix, perm):
    permuted = matrix.permuted(perm)
    if not permuted.is_structurally_symmetric():
        permuted = permuted.pattern_symmetrized()
    return factor_nnz(permuted, elimination_tree(permuted))


ALL_METHODS = ["amd", "nd", "rcm", "natural"]


class TestGraphHelpers:
    def test_pattern_graph_symmetric_no_selfloops(self, unsym_small):
        indptr, indices = pattern_graph(unsym_small)
        n = unsym_small.n_rows
        edges = set()
        for v in range(n):
            for u in indices[indptr[v]:indptr[v + 1]]:
                assert u != v
                edges.add((v, int(u)))
        for v, u in edges:
            assert (u, v) in edges

    def test_bfs_levels_on_path(self):
        # Path graph 0-1-2-3.
        dense = np.eye(4) * 3
        for i in range(3):
            dense[i, i + 1] = dense[i + 1, i] = -1
        m = CSCMatrix.from_dense(dense)
        indptr, indices = pattern_graph(m)
        levels, far = bfs_levels(indptr, indices, 0)
        assert list(levels) == [0, 1, 2, 3]
        assert far == 3

    def test_bfs_respects_mask(self):
        dense = np.eye(4) * 3
        for i in range(3):
            dense[i, i + 1] = dense[i + 1, i] = -1
        m = CSCMatrix.from_dense(dense)
        indptr, indices = pattern_graph(m)
        mask = np.array([True, True, False, True])
        levels, _ = bfs_levels(indptr, indices, 0, mask=mask)
        assert levels[2] == -1 and levels[3] == -1  # cut off behind mask

    def test_pseudo_peripheral_on_path_finds_end(self):
        dense = np.eye(6) * 3
        for i in range(5):
            dense[i, i + 1] = dense[i + 1, i] = -1
        m = CSCMatrix.from_dense(dense)
        indptr, indices = pattern_graph(m)
        v = pseudo_peripheral_vertex(indptr, indices, 3)
        assert v in (0, 5)


class TestPermutationValidity:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_is_permutation(self, method, spd_small):
        perm = fill_reducing_ordering(spd_small, method)
        assert sorted(perm.tolist()) == list(range(spd_small.n_rows))

    @pytest.mark.parametrize("method", ["amd", "nd", "rcm"])
    def test_works_on_unsymmetric(self, method, unsym_small):
        perm = fill_reducing_ordering(unsym_small, method)
        assert sorted(perm.tolist()) == list(range(unsym_small.n_rows))

    def test_unknown_method_raises(self, spd_small):
        with pytest.raises(ValueError):
            fill_reducing_ordering(spd_small, "metis")

    @pytest.mark.parametrize("method", ["amd", "nd", "rcm"])
    def test_deterministic(self, method, spd_irregular):
        p1 = fill_reducing_ordering(spd_irregular, method)
        p2 = fill_reducing_ordering(spd_irregular, method)
        assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("method", ["amd", "nd", "rcm"])
    def test_disconnected_graph(self, method):
        blocks = np.zeros((6, 6))
        # Two components: a 3-vertex path and three isolated vertices.
        blocks[:3, :3] = np.eye(3) * 3
        blocks[0, 1] = blocks[1, 0] = -1.0
        blocks[1, 2] = blocks[2, 1] = -1.0
        blocks[3:, 3:] = np.eye(3) * 2
        m = CSCMatrix.from_dense(blocks)
        perm = fill_reducing_ordering(m, method)
        assert sorted(perm.tolist()) == list(range(6))


class TestOrderingQuality:
    def test_rcm_reduces_bandwidth(self):
        m = grid_laplacian_2d(12, seed=1)
        shuffled = m.permuted(np.random.default_rng(0).permutation(m.n_rows))
        perm = rcm(shuffled)
        assert bandwidth(shuffled, perm) < bandwidth(
            shuffled, np.arange(m.n_rows)
        )

    def test_rcm_comparable_to_scipy(self):
        m = grid_laplacian_2d(10, seed=2)
        ours = bandwidth(m, rcm(m))
        ref = bandwidth(m, np.asarray(
            reverse_cuthill_mckee(sp.csc_matrix(m.to_dense()))
        ))
        assert ours <= 2 * max(1, ref)

    def test_amd_beats_natural_on_grid(self):
        m = grid_laplacian_2d(14, seed=3)
        shuffled = m.permuted(np.random.default_rng(1).permutation(m.n_rows))
        amd_fill = fill_of(shuffled, minimum_degree(shuffled))
        natural_fill = fill_of(shuffled, np.arange(m.n_rows))
        assert amd_fill < natural_fill

    def test_nd_beats_natural_on_grid(self):
        m = grid_laplacian_3d(6, seed=4)
        shuffled = m.permuted(np.random.default_rng(2).permutation(m.n_rows))
        nd_fill = fill_of(shuffled, nested_dissection(shuffled))
        natural_fill = fill_of(shuffled, np.arange(m.n_rows))
        assert nd_fill < natural_fill

    def test_amd_handles_hub_graphs(self):
        m = power_law_spd(300, seed=5)
        amd_fill = fill_of(m, minimum_degree(m))
        rcm_fill = fill_of(m, rcm(m))
        assert amd_fill <= rcm_fill

    def test_amd_near_optimal_on_banded(self):
        # A banded matrix has zero fill in natural order; AMD should not
        # be catastrophically worse.
        m = banded_spd(60, 2, seed=6)
        natural_fill = fill_of(m, np.arange(m.n_rows))
        amd_fill = fill_of(m, minimum_degree(m))
        assert amd_fill <= 2 * natural_fill

    def test_nd_leaf_size_respected(self):
        m = grid_laplacian_2d(10, seed=7)
        perm = nested_dissection(m, leaf_size=m.n_rows + 1)
        # Entire graph is one leaf: ordering is by degree.
        assert sorted(perm.tolist()) == list(range(m.n_rows))


class TestStaticPivoting:
    def test_identity_when_diagonal_dominant(self, unsym_small):
        # Diagonally dominant: the greedy match should keep rows in place.
        perm = static_pivoting(unsym_small)
        assert np.array_equal(perm, np.arange(unsym_small.n_rows))

    def test_fixes_zero_diagonal(self):
        dense = np.array([[0.0, 2.0], [3.0, 0.0]])
        m = CSCMatrix.from_dense(dense)
        permuted, perm = apply_static_pivoting(m)
        assert np.all(permuted.diagonal() != 0)
        assert np.allclose(permuted.to_dense(), dense[perm, :])

    def test_prefers_large_entries(self):
        dense = np.array([[1.0, 100.0], [100.0, 1.0]])
        m = CSCMatrix.from_dense(dense)
        perm = static_pivoting(m)
        # Swapping rows puts the 100s on the diagonal.
        assert list(perm) == [1, 0]

    def test_cyclic_permutation_needed(self):
        # Requires an augmenting path, not just greedy matching.
        dense = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 0.0],
        ])
        m = CSCMatrix.from_dense(dense)
        permuted, _ = apply_static_pivoting(m)
        assert np.all(permuted.diagonal() != 0)

    def test_structurally_singular_raises(self):
        dense = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            static_pivoting(CSCMatrix.from_dense(dense))

    def test_non_square_raises(self):
        m = CSCMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError):
            static_pivoting(m)

    def test_permutation_is_valid(self):
        m = circuit_like(100, seed=11)
        perm = static_pivoting(m)
        assert sorted(perm.tolist()) == list(range(m.n_rows))


class TestNetworkxOracles:
    """Independent cross-checks against scipy.sparse.csgraph (networkx
    until it stopped being a dependency; the class keeps its test ids).
    """

    @staticmethod
    def _csr(indptr, indices):
        n = len(indptr) - 1
        return sp.csr_matrix(
            (np.ones(len(indices)), indices, indptr), shape=(n, n))

    def test_bfs_levels_match_shortest_paths(self, spd_irregular):
        indptr, indices = pattern_graph(spd_irregular)
        levels, _ = bfs_levels(indptr, indices, 0)
        dist = shortest_path(self._csr(indptr, indices), unweighted=True,
                             indices=0)
        expected = np.where(np.isinf(dist), -1, dist).astype(int)
        assert np.array_equal(np.asarray(levels), expected)

    def test_grid_generator_is_connected(self):
        indptr, indices = pattern_graph(grid_laplacian_2d(8, seed=1))
        n_components, _ = connected_components(
            self._csr(indptr, indices), directed=False)
        assert n_components == 1

    def test_circuit_hub_degrees_power_law_ish(self):
        m = circuit_like(3600, hub_fraction=0.3, seed=4)
        indptr, _ = pattern_graph(m)
        degrees = np.sort(np.diff(indptr))[::-1]
        # Hubs: top degree well above the median.
        assert degrees[0] >= 2 * degrees[len(degrees) // 2]

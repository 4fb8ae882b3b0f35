"""Tests for elimination-tree construction and traversals."""

import numpy as np
import pytest

from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import (
    NO_PARENT,
    elimination_tree,
    etree_children,
    etree_heights,
    etree_levels,
    postorder,
)


def brute_force_etree(dense):
    """Reference: parent(j) = min row > j of L's column j, via dense
    Cholesky-like symbolic elimination."""
    n = dense.shape[0]
    pattern = (dense != 0).astype(bool)
    np.fill_diagonal(pattern, True)
    for k in range(n):
        below = np.nonzero(pattern[k + 1:, k])[0] + k + 1
        for i in below:
            pattern[below, i] = True
            pattern[i, below] = True
    parent = np.full(n, NO_PARENT, dtype=np.int64)
    for j in range(n):
        below = np.nonzero(pattern[j + 1:, j])[0]
        if len(below):
            parent[j] = j + 1 + below[0]
    return parent


@pytest.mark.parametrize("fixture", ["spd_small", "spd_medium",
                                     "spd_irregular", "spd_dense_ish"])
def test_matches_brute_force(fixture, request):
    matrix = request.getfixturevalue(fixture)
    parent = elimination_tree(matrix)
    want = brute_force_etree(matrix.to_dense())
    assert np.array_equal(parent, want)


def test_parent_always_greater(spd_medium):
    parent = elimination_tree(spd_medium)
    for j, p in enumerate(parent):
        assert p == NO_PARENT or p > j


def test_diagonal_matrix_is_forest_of_roots():
    m = CSCMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    assert np.all(elimination_tree(m) == NO_PARENT)


def test_tridiagonal_is_path():
    dense = np.eye(5) * 3
    for i in range(4):
        dense[i, i + 1] = dense[i + 1, i] = -1
    parent = elimination_tree(CSCMatrix.from_dense(dense))
    assert list(parent) == [1, 2, 3, 4, NO_PARENT]


def test_requires_square():
    m = CSCMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError):
        elimination_tree(m)


def test_children_inverse_of_parent(spd_medium):
    parent = elimination_tree(spd_medium)
    children = etree_children(parent)
    for j, kids in enumerate(children):
        for c in kids:
            assert parent[c] == j


class TestPostorder:
    def test_is_permutation(self, spd_medium):
        parent = elimination_tree(spd_medium)
        post = postorder(parent)
        assert sorted(post.tolist()) == list(range(len(parent)))

    def test_children_before_parents(self, spd_irregular):
        parent = elimination_tree(spd_irregular)
        post = postorder(parent)
        position = np.empty(len(parent), dtype=np.int64)
        position[post] = np.arange(len(parent))
        for j, p in enumerate(parent):
            if p != NO_PARENT:
                assert position[j] < position[p]

    def test_descendants_contiguous(self, spd_medium):
        # In a postorder, each subtree occupies a contiguous index range.
        parent = elimination_tree(spd_medium)
        post = postorder(parent)
        position = np.empty(len(parent), dtype=np.int64)
        position[post] = np.arange(len(parent))
        children = etree_children(parent)

        def subtree(v):
            out = [v]
            for c in children[v]:
                out.extend(subtree(c))
            return out

        for v in range(len(parent)):
            positions = sorted(position[u] for u in subtree(v))
            assert positions == list(
                range(positions[0], positions[0] + len(positions))
            )

    def test_bad_parent_array_raises(self):
        with pytest.raises(ValueError):
            postorder(np.array([1, 0], dtype=np.int64))  # a cycle


class TestLevelsHeights:
    def test_levels_roots_zero(self, spd_medium):
        parent = elimination_tree(spd_medium)
        levels = etree_levels(parent)
        for j, p in enumerate(parent):
            if p == NO_PARENT:
                assert levels[j] == 0
            else:
                assert levels[j] == levels[p] + 1

    def test_heights_leaves_zero(self, spd_medium):
        parent = elimination_tree(spd_medium)
        heights = etree_heights(parent)
        children = etree_children(parent)
        for j in range(len(parent)):
            if not children[j]:
                assert heights[j] == 0
            else:
                assert heights[j] == 1 + max(heights[c] for c in children[j])

    def test_path_heights(self):
        parent = np.array([1, 2, 3, NO_PARENT], dtype=np.int64)
        assert list(etree_heights(parent)) == [0, 1, 2, 3]
        assert list(etree_levels(parent)) == [3, 2, 1, 0]

    def test_heights_reject_descending_parent(self):
        # A forest, but vertex 2's parent precedes it.
        parent = np.array([NO_PARENT, 0, 0], dtype=np.int64)
        with pytest.raises(ValueError, match="not an elimination tree"):
            etree_heights(parent)

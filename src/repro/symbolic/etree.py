"""Elimination tree construction and traversal (Section 2.3).

The elimination tree (Schreiber [56] in the paper) has one vertex per
column; ``parent(j)`` is the row index of the first subdiagonal nonzero of
column j of the factor L.  It encodes every data dependence of sparse
factorization: column j can only be eliminated after all its descendants.

We use Liu's almost-linear-time algorithm with path compression, which needs
only the pattern of A (not of L).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix

NO_PARENT = -1


def elimination_tree(matrix: CSCMatrix) -> np.ndarray:
    """Compute the elimination tree of a symmetric-pattern matrix.

    Args:
        matrix: square matrix; only the lower-triangular pattern is read, so
            callers with unsymmetric matrices should pass the symmetrized
            pattern (``matrix.pattern_symmetrized()``).

    Returns:
        parent array of length n; ``parent[j]`` is j's parent column or
        ``NO_PARENT`` (-1) for roots.
    """
    n = matrix.n_cols
    if matrix.n_rows != n:
        raise ValueError("elimination tree requires a square matrix")
    # Plain lists: several times cheaper to index per entry than arrays.
    indptr, indices = matrix.indptr.tolist(), matrix.indices.tolist()
    parent = [NO_PARENT] * n
    ancestor = [NO_PARENT] * n
    for j in range(n):
        # Entries (i, j) with i < j: by symmetry of the pattern, column j
        # of A read above the diagonal is row j of the lower triangle.
        for i in indices[indptr[j]:indptr[j + 1]]:
            if i >= j:
                break  # row indices are sorted; rest are lower-triangle
            # Path from i to the root of its current subtree, compressing.
            while True:
                next_anc = ancestor[i]
                ancestor[i] = j
                if next_anc == NO_PARENT:
                    parent[i] = j
                    break
                if next_anc == j:
                    break
                i = next_anc
    return np.array(parent, dtype=np.int64)


def etree_children(parent: np.ndarray) -> list[list[int]]:
    """Children lists of an elimination tree given the parent array."""
    children: list[list[int]] = [[] for _ in range(len(parent))]
    for j, p in enumerate(np.asarray(parent).tolist()):
        if p != NO_PARENT:
            children[p].append(j)
    return children


def postorder(parent: np.ndarray, child_key=None) -> np.ndarray:
    """A postorder of the elimination tree.

    Returns an array ``post`` where ``post[k]`` is the k-th vertex in
    postorder.  Every vertex appears after all of its descendants, which is
    the correctness requirement of Listing 2.  Siblings go in ascending
    index order, or ascending ``child_key(vertex)`` when given.
    """
    children = etree_children(parent)  # each list ascending already
    if child_key is not None:
        children = [sorted(c, key=child_key) for c in children]
    post: list[int] = []
    # Iterative DFS over every root in ascending order.
    for root in np.flatnonzero(np.asarray(parent) == NO_PARENT).tolist():
        stack = [(root, 0)]
        while stack:
            vertex, child_pos = stack.pop()
            if child_pos < len(children[vertex]):
                stack.append((vertex, child_pos + 1))
                stack.append((children[vertex][child_pos], 0))
            else:
                post.append(vertex)
    if len(post) != len(parent):
        raise ValueError("parent array does not describe a forest")
    return np.array(post, dtype=np.int64)


def etree_levels(parent: np.ndarray) -> np.ndarray:
    """Depth of each vertex (roots at level 0).

    Used by the GPU baseline's level-by-level batching (Figure 8), where
    batches group vertices at equal height from the leaves; see
    ``repro.baselines.gpu`` which uses *height* rather than depth.
    """
    n = len(parent)
    levels = np.full(n, -1, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        p = int(parent[j])
        if p == NO_PARENT:
            levels[j] = 0
        elif levels[p] >= 0:
            levels[j] = levels[p] + 1
        else:
            # Parent not yet resolved (parents always have higher indices in
            # an etree, so this should not happen; guard for safety).
            chain = [j]
            while p != NO_PARENT and levels[p] < 0:
                chain.append(p)
                p = int(parent[p])
            base = 0 if p == NO_PARENT else int(levels[p]) + 1
            for offset, vertex in enumerate(reversed(chain)):
                levels[vertex] = base + offset
    return levels


def etree_heights(parent: np.ndarray) -> np.ndarray:
    """Height of each vertex above the leaves (leaves at height 0).

    This is the batching key used by GPU implementations: all vertices of
    height h can be factored once heights < h are done.  An elimination
    tree's parents follow their children, so that is one ascending pass.

    Raises:
        ValueError: if some ``parent[j]`` is neither ``NO_PARENT`` nor
            greater than j.
    """
    up = np.asarray(parent, dtype=np.int64)
    if not np.all((up > np.arange(len(up))) | (up == NO_PARENT)):
        raise ValueError("parent array is not an elimination tree")
    up = up.tolist()
    heights = [0] * len(up)
    for j in range(len(up)):
        p = up[j]
        if p != NO_PARENT and heights[p] <= heights[j]:
            heights[p] = heights[j] + 1
    return np.array(heights, dtype=np.int64)


def etree_level_sets(parent: np.ndarray) -> list[np.ndarray]:
    """Height-grouped level sets for level-scheduled parallel traversal.

    ``parent`` must be an elimination tree (every parent index above its
    child), as ``etree_heights`` requires.  ``result[h]`` holds the vertices
    at height ``h`` above the leaves, in ascending index order.  Every vertex's children live in strictly lower
    levels, so processing levels in order with a barrier between them
    satisfies all elimination-tree dependences; vertices *within* a level
    are mutually independent and may run concurrently.  This is the
    schedule the level-scheduled multifrontal factorization dispatches to
    its worker pool (and the batching structure of GPU solvers, Figure 8).
    """
    if len(parent) == 0:
        return []
    heights = etree_heights(parent)
    return [np.flatnonzero(heights == h)
            for h in range(int(heights.max()) + 1)]

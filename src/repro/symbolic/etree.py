"""Elimination tree construction and traversal (Section 2.3).

The elimination tree (Schreiber [56] in the paper) has one vertex per
column; ``parent(j)`` is the row index of the first subdiagonal nonzero of
column j of the factor L.  It encodes every data dependence of sparse
factorization: column j can only be eliminated after all its descendants.

We use Liu's almost-linear-time algorithm with path compression, which needs
only the pattern of A (not of L).  It, :func:`postorder` and
:func:`etree_heights` run in the compiled core (``repro_etree``,
``repro_postorder`` and ``repro_etree_heights`` in
``repro/numeric/_core.c``).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix

NO_PARENT = -1


def elimination_tree(matrix: CSCMatrix) -> np.ndarray:
    """Compute the elimination tree of a symmetric-pattern matrix.

    Liu's algorithm: for each column j, each entry (i, j) with i < j
    (column j read down to its first row >= j; rows ascending) walks from
    i to the root of its current subtree, pointing every vertex on the
    way at j, and makes j that root's parent.

    Args:
        matrix: square matrix; only the lower-triangular pattern is read, so
            callers with unsymmetric matrices should pass the symmetrized
            pattern (``matrix.pattern_symmetrized()``).

    Returns:
        parent array of length n; ``parent[j]`` is j's parent column or
        ``NO_PARENT`` (-1) for roots.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("elimination tree requires a square matrix")
    # Imported here: repro.numeric imports repro.symbolic.
    from repro.numeric import compiled

    return compiled.elimination_tree(matrix.indptr, matrix.indices)


def etree_children(parent: np.ndarray) -> list[list[int]]:
    """Children lists of an elimination tree given the parent array."""
    children: list[list[int]] = [[] for _ in range(len(parent))]
    for j, p in enumerate(np.asarray(parent).tolist()):
        if p != NO_PARENT:
            children[p].append(j)
    return children


def postorder(parent: np.ndarray) -> np.ndarray:
    """A postorder of the elimination tree.

    Returns an array ``post`` where ``post[k]`` is the k-th vertex in
    postorder.  Every vertex appears after all of its descendants, which is
    the correctness requirement of Listing 2.  A depth-first walk from
    every root in ascending order, siblings in ascending index order.

    Raises:
        ValueError: if ``parent`` is not a forest (an entry outside
            ``[-1, n)``, or a cycle).
    """
    from repro.numeric import compiled

    return compiled.postorder(parent)


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
    tree's parents follow their children, so that is one ascending pass
    (in the compiled core, ``repro_etree_heights``).

    Raises:
        ValueError: if some ``parent[j]`` is neither ``NO_PARENT`` nor
            greater than j (and below n).
    """
    from repro.numeric import compiled

    return compiled.etree_heights(parent)


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

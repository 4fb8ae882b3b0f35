"""Adjacency-structure helpers shared by the ordering algorithms.

All orderings operate on the undirected graph of the *symmetrized* nonzero
pattern of A (pattern of A + A^T, diagonal excluded), which is the standard
setup for both Cholesky and static-pivoted LU.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix


def pattern_graph(matrix: CSCMatrix) -> tuple[np.ndarray, np.ndarray]:
    """CSR-style (indptr, indices) adjacency of the symmetrized pattern.

    Self-loops (diagonal entries) are removed; each undirected edge appears
    in both endpoint's neighbor lists, sorted ascending.  Built in O(nnz)
    in the compiled core (``repro_pattern_graph``): each vertex's list is
    its column merged with its row, read off the transpose.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("pattern_graph requires a square matrix")
    # Imported here: repro.numeric imports repro.ordering.
    from repro.numeric import compiled

    return compiled.pattern_graph(matrix.indptr, matrix.indices)


def bfs_levels(
    indptr: np.ndarray, indices: np.ndarray, start: int,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Breadth-first levels from ``start``.

    Returns an array of levels (-1 for unreachable or masked-out vertices)
    and the index of the last vertex visited (a vertex at maximum distance).
    ``mask`` restricts the traversal to vertices where mask is True.
    """
    n = len(indptr) - 1
    levels = np.full(n, -1, dtype=np.int64)
    if mask is not None and not mask[start]:
        raise ValueError("start vertex is masked out")
    levels[start] = 0
    frontier = np.array([start], dtype=np.int64)
    last = start
    depth = 0
    while len(frontier):
        last = int(frontier[-1])
        depth += 1
        # Every frontier vertex's adjacency range, gathered in one pass.
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        neighbors = indices[
            np.repeat(starts - np.cumsum(counts) + counts, counts)
            + np.arange(counts.sum())
        ]
        fresh = neighbors[levels[neighbors] == -1]
        if mask is not None:
            fresh = fresh[mask[fresh]]
        fresh = np.unique(fresh)
        levels[fresh] = depth
        frontier = fresh
    return levels, last


def pseudo_peripheral_vertex(
    indptr: np.ndarray, indices: np.ndarray, start: int,
    mask: np.ndarray | None = None,
) -> int:
    """Find a vertex of (approximately) maximal eccentricity.

    The George-Liu heuristic: repeatedly BFS and jump to the farthest vertex
    until the eccentricity stops growing.
    """
    current = start
    levels, far = bfs_levels(indptr, indices, current, mask)
    best_depth = levels.max()
    for _ in range(8):
        levels, new_far = bfs_levels(indptr, indices, far, mask)
        depth = levels.max()
        if depth <= best_depth:
            return far
        best_depth = depth
        current, far = far, new_far
    return far

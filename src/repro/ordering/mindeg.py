"""Array-based quotient-graph approximate minimum degree ordering (AMD).

The Amestoy-Davis-Duff formulation CHOLMOD uses by default: an
eliminated pivot p becomes an *element* whose variable list L_p stands
for the clique it created; a variable's adjacency is its remaining
original neighbours A_i plus the variables of its adjacent elements E_i.
The elimination runs in the compiled core (``repro_amd`` in
``repro/numeric/_core.c``, GIL released); per pivot:

* L_p = A_p and every L_e, e in E_p, minus dead variables, in order of
  first occurrence; E_p is absorbed into p.
* One counting pass over the element lists of L_p's members gives
  ``w[e] = |L_e \\ L_p|`` (element sizes are set at creation and stay
  exact: an element dies before any of its variables).  ``w[e] == 0``
  means L_p covers L_e, so e is absorbed too.
* The approximate external degree of i in L_p is ``min(remaining - |i|,
  d_old(i) + |L_p \\ i|, |A_i \\ L_p| + |L_p \\ i| + sum of w[e] over
  E_i \\ {p})`` — exact when i's elements overlap only inside L_p, an
  upper bound otherwise.
* A variable left with no element but p and no neighbour is eliminated
  with p (mass elimination); variables with identical (E_i, A_i) merge
  into one weighted supervariable, the first one seen keeping it.  Both
  lists keep a canonical order (elements by creation, neighbours
  ascending), so nothing depends on hash order.

Pivots come from degree buckets, most recently updated first.  Once the
minimum degree exceeds half of what remains (with more than 32 vertices
left), the rest is a near-clique and is emitted by (degree, index) — the
dense-row guard for the hub circuit matrices.  The pivots are emitted in
a postorder of the assembly tree (same elimination, same fill): roots
ascending, a pivot's children by ascending subtree size, except that
subtrees of at most ``FOLDABLE_COLS`` columns come last, largest first,
ties by index.  ``find_supernodes`` merges a child only when it is
column-contiguous with its parent, so that tail is what relaxed
amalgamation can fold; docs/ORDERING.md has the measurements behind
both halves and maps each tie rule to the C structure that keeps it.
Cost is O(sum over pivots of |L_p| + the element lists of its members),
far below nnz(L): 65 k variable visits for the 20^3 grid's 820 k entries.
"""

from __future__ import annotations

import numpy as np

from repro.ordering.graph import pattern_graph
from repro.sparse.csc import CSCMatrix

FOLDABLE_COLS = 112  #: subtrees this small go last, next to their parent


def minimum_degree(matrix: CSCMatrix) -> np.ndarray:
    """Compute an approximate-minimum-degree permutation of the
    symmetrized pattern of ``matrix``.

    Returns:
        perm mapping new index -> old index.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("minimum degree requires a square matrix")
    # Imported here: repro.numeric imports repro.ordering.
    from repro.numeric import compiled

    indptr, indices = pattern_graph(matrix)
    return compiled.minimum_degree(indptr, indices, FOLDABLE_COLS)

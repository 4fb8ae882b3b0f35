"""Array-based quotient-graph approximate minimum degree ordering (AMD).

The Amestoy-Davis-Duff formulation CHOLMOD uses by default: an
eliminated pivot p becomes an *element* whose variable list L_p stands
for the clique it created; a variable's adjacency is its remaining
original neighbours A_i plus the variables of its adjacent elements E_i.
All state is integer lists indexed by vertex — ``cs_amd``'s workspace
kept as one list per vertex, because CPython runs ``sum``/``map``/
``Counter`` over a list far faster than index arithmetic.  Per pivot:

* L_p = A_p and every L_e, e in E_p, minus dead variables; E_p is
  absorbed into p.
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
  into one weighted supervariable.  Both lists keep a canonical order
  (elements by creation, neighbours ascending), so the signature is a
  dict key and nothing depends on hash or ``set`` iteration order.

Pivots come from degree buckets, most recently updated first.  Once the
minimum degree exceeds ``dense_threshold`` of what remains, the rest is a
near-clique and is emitted by (degree, index) — the dense-row guard for
the hub circuit matrices.  The pivots are emitted in a postorder of the
assembly tree (same elimination, same fill): a pivot's children by
ascending subtree size, except that subtrees of at most ``FOLDABLE_COLS``
columns come last, largest first.  ``find_supernodes`` merges a child
only when it is column-contiguous with its parent, so that tail is what
relaxed amalgamation can fold; docs/ORDERING.md has the measurements
behind both halves and against the set-based version this replaced.
Cost is O(sum over pivots of |L_p| + the element lists of its members),
far below nnz(L): 65 k variable visits for the 20^3 grid's 820 k entries.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

import numpy as np

from repro.ordering.graph import pattern_graph
from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import NO_PARENT, postorder

FOLDABLE_COLS = 112  #: subtrees this small go last, next to their parent


def minimum_degree(matrix: CSCMatrix,
                   dense_threshold: float = 0.5) -> np.ndarray:
    """Compute an approximate-minimum-degree permutation.

    Args:
        matrix: the matrix to order; its symmetrized pattern is used.
        dense_threshold: variables whose degree exceeds this fraction of the
            remaining vertices are deferred to the end (the usual "dense
            row" guard against hub vertices).

    Returns:
        perm mapping new index -> old index.
    """
    n = matrix.n_rows
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("minimum degree requires a square matrix")
    indptr, indices = pattern_graph(matrix)
    ptr, flat = indptr.tolist(), indices.tolist()

    var_adj = [flat[ptr[v]:ptr[v + 1]] for v in range(n)]   # A_i
    elem_adj: list[list[int]] = [[] for _ in range(n)]      # E_i
    elem_vars: list[list[int]] = [[] for _ in range(n)]     # L_e
    elem_size = [0] * n   # |L_e| in original variables; 0 = not an element
    weight = [1] * n      # supervariable size; 0 = dead, < 0 = in L_p
    members = [[v] for v in range(n)]
    degree = [len(a) for a in var_adj]
    w = [0] * n           # |L_e \ L_p| for the elements the pivot touched
    buckets: list[dict[int, None]] = [{} for _ in range(n + 1)]
    for v in range(n):
        buckets[degree[v]][v] = None

    wget, weight_of = w.__getitem__, weight.__getitem__
    pivots: list[int] = []      # elimination order
    parent = [-1] * n           # assembly tree: the pivot that absorbed e
    remaining, mindeg = n, 0
    while remaining:
        while not buckets[mindeg]:
            mindeg += 1
        if remaining > 32 and mindeg > dense_threshold * remaining:
            break
        p = buckets[mindeg].popitem()[0]
        pivots.append(p)
        remaining -= weight[p]
        weight[p] = 0

        absorbed = elem_adj[p]
        pivot_vars = [
            i for i in dict.fromkeys(chain(
                var_adj[p], *[elem_vars[e] for e in absorbed]))
            if weight[i] > 0
        ]
        for e in absorbed:
            elem_vars[e], elem_size[e], parent[e] = [], 0, p

        # Counting pass: how much of each touched element lies in L_p.
        overlap = Counter(chain.from_iterable(
            [elem_adj[i] for i in pivot_vars]))
        pivot_size = 0
        for i in pivot_vars:
            wi = weight[i]
            weight[i] = -wi
            pivot_size += wi
            del buckets[degree[i]][i]
            if wi > 1:
                for e in elem_adj[i]:
                    overlap[e] += wi - 1
        for e, inside in overlap.items():
            w[e] = elem_size[e] - inside
            if not w[e]:
                elem_vars[e], parent[e] = [], p

        # Degree update, absorption, mass elimination, supervariables.
        survivors: list[int] = []
        twins: dict[tuple, int] = {}
        for i in pivot_vars:
            elems = [e for e in elem_adj[i] if w[e] > 0]
            nbrs = var_adj[i]
            if nbrs:
                nbrs = [j for j in nbrs if weight[j] > 0]
            if not elems and not nbrs:
                members[p] += members[i]
                remaining += weight[i]
                pivot_size += weight[i]
                weight[i] = 0
                continue
            twin = twins.setdefault((tuple(elems), tuple(nbrs)), i)
            if twin != i:
                members[twin] += members[i]
                weight[twin] += weight[i]
                weight[i] = 0
                continue
            d = sum(map(wget, elems))
            if nbrs:
                d += sum(map(weight_of, nbrs))
            if d < degree[i]:
                degree[i] = d
            elems.append(p)
            elem_adj[i], var_adj[i] = elems, nbrs
            survivors.append(i)

        elem_vars[p], elem_size[p] = survivors, pivot_size
        for i in survivors:
            wi = weight[i] = -weight[i]
            d = degree[i] + pivot_size - wi
            if d > remaining - wi:
                d = remaining - wi
            degree[i] = d
            buckets[d][i] = None
            if d < mindeg:
                mindeg = d

    # Assembly tree over pivot ranks and the columns under each pivot.
    rank = {p: k for k, p in enumerate(pivots)}
    tree = [rank.get(parent[p], NO_PARENT) for p in pivots]
    cols = [len(members[p]) for p in pivots]
    for k, up in enumerate(tree):
        if up != NO_PARENT:
            cols[up] += cols[k]
    # Siblings: large subtrees ascending, then the foldable ones descending.
    keys = [(c <= FOLDABLE_COLS, -c if c <= FOLDABLE_COLS else c)
            for c in cols]
    order: list[int] = []
    for k in postorder(np.array(tree), keys.__getitem__).tolist():
        order += members[pivots[k]]
    for v in sorted((v for v in range(n) if weight[v] > 0),
                    key=lambda v: (degree[v], v)):
        order += members[v]
    if len(order) != n:
        raise AssertionError(f"minimum degree ordered {len(order)} of {n}")
    return np.asarray(order, dtype=np.int64)

"""Frozen reference implementations of rewritten analysis layers.

These are the per-column / per-merge-union versions as they stood at
commit dd7037e (``column_structures``, ``find_supernodes`` and
``NumericContext._build_column_maps`` / ``_build_row_maps``), and at
commit 71419bf the ``lexsort`` + ``np.add.at`` COO→CSC conversion
(``from_coo``) and the per-column greedy static pivoting with recursive
augmentation (``static_pivoting``), kept here — under ``tests/``, never
imported by ``src/`` — as the oracles ``tests/test_symbolic_golden.py``,
``tests/test_pivoting_golden.py`` and ``tests/test_coo.py`` compare the
fast code against; and the pure-Python quotient-graph AMD
(``minimum_degree``) as it stood at commit 21dbc0e, before the compiled
one replaced it, which ``tests/test_ordering_oracle.py`` requires the
compiled ordering to equal array for array.  Do not "optimise" them:
their only job is to stay what they were.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

import numpy as np

from repro.ordering import graph
from repro.ordering.mindeg import FOLDABLE_COLS
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import NO_PARENT, etree_children, postorder
from repro.symbolic.supernodes import Supernode


def _arange_csc(n_rows, n_cols, rows, cols):
    """CSC of the given pattern whose values are the source entry indices
    (the tagging trick the old ``NumericContext`` used)."""
    vals = np.arange(len(rows), dtype=np.float64)
    return CSCMatrix.from_coo(COOMatrix(n_rows, n_cols, rows, cols, vals))


def column_structures(matrix, parent):
    n = matrix.n_cols
    children = etree_children(parent)
    structs = [None] * n
    for j in range(n):
        rows = matrix.col_rows(j)
        pieces = [rows[rows >= j]]
        if not len(pieces[0]) or pieces[0][0] != j:
            pieces.insert(0, np.array([j], dtype=np.int64))
        for c in children[j]:
            child = structs[c]
            pieces.append(child[child > c])
        if len(pieces) == 1:
            structs[j] = pieces[0].astype(np.int64, copy=True)
        else:
            structs[j] = np.unique(np.concatenate(pieces))
    return structs


def _structures_nest(prev_struct, cur_struct):
    if len(cur_struct) != len(prev_struct) - 1:
        return False
    return bool(np.array_equal(cur_struct, prev_struct[1:]))


def _front_entries(front_size):
    return front_size * (front_size + 1) // 2


def find_supernodes(parent, structs, relax_small=8, relax_ratio=0.3,
                    force_small=0, merge_log=None):
    """``merge_log``, when a list, receives one ``(n_cols(child),
    len(rows(parent)), len(merged rows))`` triple per column-contiguous
    merge attempt (the identity the integer amalgamation rests on)."""
    n = len(parent)
    if n == 0:
        return []
    sn_of_col = np.empty(n, dtype=np.int64)
    starts = [0]
    sn_of_col[0] = 0
    for j in range(1, n):
        fundamental = (
            parent[j - 1] == j
            and _structures_nest(structs[j - 1], structs[j])
        )
        if not fundamental:
            starts.append(j)
        sn_of_col[j] = len(starts) - 1
    n_sn = len(starts)
    ends = [s - 1 for s in starts[1:]] + [n - 1]

    sn_parent = np.full(n_sn, -1, dtype=np.int64)
    for k in range(n_sn):
        last = ends[k]
        below = structs[last][structs[last] > last]
        if len(below):
            sn_parent[k] = sn_of_col[int(below[0])]

    merged = np.arange(n_sn)

    def find(k):
        while merged[k] != k:
            merged[k] = merged[merged[k]]
            k = int(merged[k])
        return k

    sn_cols = {k: (starts[k], ends[k]) for k in range(n_sn)}
    sn_rows = {k: structs[starts[k]].copy() for k in range(n_sn)}
    changed = True
    while changed:
        changed = False
        for k in range(n_sn):
            root_k = find(k)
            p = sn_parent[k]
            if p < 0:
                continue
            root_p = find(int(p))
            if root_p == root_k:
                continue
            c0, c1 = sn_cols[root_k]
            p0, p1 = sn_cols[root_p]
            if c1 + 1 != p0:
                continue
            merged_rows = np.unique(np.concatenate([sn_rows[root_k],
                                                    sn_rows[root_p]]))
            if merge_log is not None:
                merge_log.append((c1 - c0 + 1, len(sn_rows[root_p]),
                                  len(merged_rows)))
            forced = len(merged_rows) <= force_small
            if not forced and c1 - c0 + 1 > relax_small:
                continue
            exact = (
                _front_entries(len(sn_rows[root_k]))
                + _front_entries(len(sn_rows[root_p]))
            )
            relaxed = _front_entries(len(merged_rows))
            if (not forced and relaxed > 0
                    and (relaxed - exact) / relaxed > relax_ratio):
                continue
            merged[root_k] = root_p
            sn_cols[root_p] = (c0, p1)
            sn_rows[root_p] = merged_rows
            del sn_cols[root_k], sn_rows[root_k]
            changed = True

    survivors = sorted(sn_cols, key=lambda k: sn_cols[k][0])
    supernodes = []
    col_to_sn = np.empty(n, dtype=np.int64)
    for new, old in enumerate(survivors):
        c0, c1 = sn_cols[old]
        col_to_sn[c0:c1 + 1] = new
        supernodes.append(
            Supernode(index=new, first_col=c0, last_col=c1, rows=sn_rows[old])
        )
    for sn in supernodes:
        below = sn.rows[sn.rows > sn.last_col]
        if len(below):
            sn.parent = int(col_to_sn[int(below[0])])
            supernodes[sn.parent].children.append(sn.index)
    return supernodes


def build_column_maps(supernodes, indptr, indices):
    maps = []
    for sn in supernodes:
        size = sn.front_size
        flat, data = [], []
        for local, j in enumerate(range(sn.first_col, sn.last_col + 1)):
            lo, hi = int(indptr[j]), int(indptr[j + 1])
            rows = indices[lo:hi]
            start = int(np.searchsorted(rows, j))
            rows = rows[start:]
            pos = np.searchsorted(sn.rows, rows)
            ok = (pos < size) & (sn.rows[np.minimum(pos, size - 1)]
                                 == rows)
            flat.append(pos[ok] * size + local)
            data.append(lo + start + np.flatnonzero(ok))
        maps.append((
            np.concatenate(flat) if flat else np.empty(0, np.int64),
            np.concatenate(data) if data else np.empty(0, np.int64),
        ))
    return maps


def build_row_maps(supernodes, analyzed):
    n = analyzed.n_rows
    cols = np.repeat(np.arange(n, dtype=np.int64),
                     np.diff(analyzed.indptr))
    t = _arange_csc(n, n, cols, analyzed.indices.copy())
    t_src = np.asarray(t.data, dtype=np.int64)
    maps = []
    for sn in supernodes:
        size = sn.front_size
        flat, data = [], []
        for local, j in enumerate(range(sn.first_col, sn.last_col + 1)):
            lo, hi = int(t.indptr[j]), int(t.indptr[j + 1])
            cidx = t.indices[lo:hi]
            start = int(np.searchsorted(cidx, j + 1))
            cidx = cidx[start:]
            pos = np.searchsorted(sn.rows, cidx)
            ok = (pos < size) & (sn.rows[np.minimum(pos, size - 1)]
                                 == cidx)
            flat.append(local * size + pos[ok])
            data.append(t_src[lo + start + np.flatnonzero(ok)])
        maps.append((
            np.concatenate(flat) if flat else np.empty(0, np.int64),
            np.concatenate(data) if data else np.empty(0, np.int64),
        ))
    return maps


def context_maps(symbolic):
    """(flat_pos, data_idx) per supernode as the old NumericContext
    assembled them from the two builders."""
    analyzed = symbolic.permuted
    supernodes = symbolic.tree.supernodes
    lower = build_column_maps(supernodes, analyzed.indptr, analyzed.indices)
    if symbolic.kind != "lu":
        return [m[0] for m in lower], [m[1] for m in lower]
    upper = build_row_maps(supernodes, analyzed)
    return ([np.concatenate([lo[0], up[0]]) for lo, up in zip(lower, upper)],
            [np.concatenate([lo[1], up[1]]) for lo, up in zip(lower, upper)])


def analyze(matrix, kind, perm, **relax):
    """The old ``symbolic_factorize`` body up to the supernodes: returns
    ``(perm, permuted, parent, structs, supernodes)``."""
    from repro.symbolic.etree import elimination_tree, postorder

    def pattern(m):
        return m if kind == "cholesky" else m.pattern_symmetrized()

    perm = np.asarray(perm, dtype=np.int64)
    permuted = matrix.permuted(perm)
    parent = elimination_tree(pattern(permuted))
    post = postorder(parent)
    if not np.array_equal(post, np.arange(len(post))):
        perm = perm[post]
        permuted = matrix.permuted(perm)
        parent = elimination_tree(pattern(permuted))
    structs = column_structures(pattern(permuted), parent)
    supernodes = find_supernodes(parent, structs, **relax)
    return perm, permuted, parent, structs, supernodes


def pattern_graph(matrix):
    coo = matrix.to_coo()
    off = coo.rows != coo.cols
    rows = np.concatenate([coo.rows[off], coo.cols[off]])
    cols = np.concatenate([coo.cols[off], coo.rows[off]])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    if len(rows):
        keys = rows * matrix.n_cols + cols
        keep = np.concatenate(([True], keys[1:] != keys[:-1]))
        rows, cols = rows[keep], cols[keep]
    indptr = np.zeros(matrix.n_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols


def from_coo(coo):
    """``CSCMatrix.from_coo`` before the one-sort compression: ``lexsort``
    by (column, row), duplicates summed by ``np.add.at``."""
    order = np.lexsort((coo.rows, coo.cols))
    rows, cols, vals = coo.rows[order], coo.cols[order], coo.vals[order]
    if len(rows):
        keys = cols * coo.n_rows + rows
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        idx = np.cumsum(first) - 1
        summed = np.zeros(first.sum())
        np.add.at(summed, idx, vals)
        rows, cols, vals = rows[first], cols[first], summed
    indptr = np.zeros(coo.n_cols + 1, dtype=np.int64)
    np.add.at(indptr, cols + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSCMatrix(coo.n_rows, coo.n_cols, indptr, rows, vals)


def static_pivoting(matrix):
    """The per-column greedy matching with recursive Kuhn augmentation
    (which raises the process-wide recursion limit while it runs)."""
    import sys

    n = matrix.n_rows
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("static pivoting requires a square matrix")
    match_col = np.full(n, -1, dtype=np.int64)
    match_row = np.full(n, -1, dtype=np.int64)
    best = np.zeros(n)
    for j in range(n):
        vals = matrix.col_vals(j)
        best[j] = np.abs(vals).max() if len(vals) else 0.0
    for j in np.argsort(-best):
        j = int(j)
        rows = matrix.col_rows(j)
        vals = np.abs(matrix.col_vals(j))
        for k in np.argsort(-vals):
            i = int(rows[k])
            if match_row[i] < 0:
                match_row[i] = j
                match_col[j] = i
                break

    def augment(j, seen_rows):
        for i in matrix.col_rows(j):
            i = int(i)
            if i in seen_rows:
                continue
            seen_rows.add(i)
            if match_row[i] < 0 or augment(int(match_row[i]), seen_rows):
                match_row[i] = j
                match_col[j] = i
                return True
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n + 100))
    try:
        for j in range(n):
            if match_col[j] < 0 and not augment(j, set()):
                raise ValueError("matrix is structurally singular")
    finally:
        sys.setrecursionlimit(old_limit)
    return match_col.copy()


def bfs_levels(indptr, indices, start, mask=None):
    n = len(indptr) - 1
    levels = np.full(n, -1, dtype=np.int64)
    levels[start] = 0
    frontier = np.array([start], dtype=np.int64)
    last = start
    depth = 0
    while len(frontier):
        last = int(frontier[-1])
        depth += 1
        neighbors = indices[
            np.concatenate(
                [np.arange(indptr[v], indptr[v + 1]) for v in frontier]
            )
        ] if len(frontier) else np.empty(0, dtype=np.int64)
        fresh = neighbors[levels[neighbors] == -1]
        if mask is not None:
            fresh = fresh[mask[fresh]]
        fresh = np.unique(fresh)
        levels[fresh] = depth
        frontier = fresh
    return levels, last


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
    indptr, indices = graph.pattern_graph(matrix)
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

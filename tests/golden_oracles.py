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
compiled ordering to equal array for array; and the Python walks of the
symbolic analysis and static pivoting as they stood at commit c845c74
(``elimination_tree``, ``etree_children``, ``postorder``,
``etree_heights``, ``column_counts``, ``amalgamate``, ``merge_contiguous``,
``supernodes_from_counts``, ``static_pivoting_stack`` and
``pattern_graph_compress``), before the compiled ones replaced them,
which ``tests/test_symbolic_oracle.py`` requires the compiled walks to
equal array for array.  Nothing here calls the compiled core.  Do not
"optimise" them: their only job is to stay what they were.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from itertools import chain

import numpy as np

from repro.ordering.mindeg import FOLDABLE_COLS
from repro.sparse.coo import COOMatrix, compress
from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import Supernode

NO_PARENT = -1


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
    indptr, indices = pattern_graph_compress(matrix)
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


def column_counts(matrix: CSCMatrix, parent: np.ndarray,
                  post: Sequence[int] | None = None) -> np.ndarray:
    """nnz of each column of L (including the diagonal).

    Gilbert-Ng-Peyton: A(i, j), i > j, adds row i to column j only when
    j is a leaf of row i's subtree (a *skeleton* entry); where two such
    leaves' paths meet — their least common ancestor, by union-find over
    the postorder — the row was counted twice and is taken back.
    Summing the deltas up the tree gives the counts.  ``post`` is a
    postorder of ``parent`` when the caller has one (``range(n)`` for a
    postordered tree); by default it is computed.
    """
    n = matrix.n_cols
    up = np.asarray(parent).tolist()
    post = postorder(parent).tolist() if post is None else post
    # first[j]: postorder rank of j's first descendant (unranked at its
    # own turn = a leaf, which owns its diagonal).
    first = [-1] * n
    delta = [0] * n
    for rank, j in enumerate(post):
        if first[j] < 0:
            delta[j] = 1
        while j != NO_PARENT and first[j] < 0:
            first[j] = rank
            j = up[j]
    indptr, indices = matrix.indptr.tolist(), matrix.indices.tolist()
    max_first = [-1] * n
    prev_leaf = [-1] * n
    ancestor = list(range(n))
    for j in post:
        if up[j] != NO_PARENT:
            delta[up[j]] -= 1  # j's own row is not a row of its parent
        first_j = first[j]
        for i in indices[indptr[j]:indptr[j + 1]]:
            if i <= j or first_j <= max_first[i]:
                continue  # not lower, or j is not a leaf of row i's subtree
            max_first[i] = first_j
            delta[j] += 1
            q, prev_leaf[i] = prev_leaf[i], j
            if q >= 0:
                while q != ancestor[q]:
                    ancestor[q] = q = ancestor[ancestor[q]]
                delta[q] -= 1
        if up[j] != NO_PARENT:
            ancestor[j] = up[j]
    for j in post:
        if up[j] != NO_PARENT:
            delta[up[j]] += delta[j]
    return np.array(delta, dtype=np.int64)


def supernodes_from_counts(
    pattern: CSCMatrix,
    parent: np.ndarray,
    counts: np.ndarray,
    relax_small: int = 8,
    relax_ratio: float = 0.3,
    force_small: int = 0,
) -> list[Supernode]:
    """:func:`find_supernodes` without per-column structures.

    The partition needs only the column counts.  A supernode's rows
    below its last column c1 are then one union, built bottom-up: its
    columns' strict-lower rows of A (one slice, the columns are
    contiguous) plus its children's update rows, keeping the rows above
    c1.  That is ``struct(c1) \\ {c1}``: every descendant of c1 is one of
    the supernode's columns or lies in a child supernode's subtree.

    Args:
        pattern: square matrix with symmetric pattern, postordered (only
            the strict lower triangle is read).
        parent: its elimination tree, parents after children.
        counts: :func:`repro.symbolic.structure.column_counts` of both.
    """
    first, last, sn_parent = amalgamate(
        parent, counts, relax_small, relax_ratio, force_small)
    n = len(parent)
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(pattern.indptr))
    below = pattern.indices > cols
    lower = pattern.indices[below]
    lptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[below], minlength=n), out=lptr[1:])
    lptr = lptr.tolist()
    pending: list[list[np.ndarray]] = [[] for _ in range(len(first))]
    tails: list[np.ndarray] = []
    for k, (c0, c1, up) in enumerate(zip(
            first.tolist(), last.tolist(), sn_parent.tolist())):
        union = np.unique(np.concatenate(
            (lower[lptr[c0]:lptr[c1 + 1]], *pending[k])))
        tail = union[np.searchsorted(union, c1, "right"):]
        if up >= 0:
            pending[up].append(tail)
        tails.append(tail)
    return _link(first, last, sn_parent, tails)


def amalgamate(
    parent: np.ndarray,
    counts: np.ndarray,
    relax_small: int = 8,
    relax_ratio: float = 0.3,
    force_small: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The supernode partition, on integers only.

    Returns ``(first, last, sn_parent)``: each supernode's column range
    and its parent supernode (-1 for roots), in column order.  The knobs
    are :func:`find_supernodes`'s.
    """
    n = len(parent)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    parent = np.asarray(parent, dtype=np.int64)

    # Step 1: fundamental supernodes — runs of columns where each is the
    # etree parent of its predecessor with one row fewer (the parent's
    # structure contains the child's minus the child, so equal size means
    # perfectly nested).
    head = np.ones(n, dtype=bool)
    head[1:] = (parent[:-1] != np.arange(1, n)) | (counts[1:] != counts[:-1] - 1)
    first = np.flatnonzero(head)
    last = np.append(first[1:] - 1, n - 1)

    # Step 2: supernode tree. The parent supernode owns the etree parent
    # of this supernode's last column (its first structure row below).
    def tree_links(first: np.ndarray, last: np.ndarray) -> np.ndarray:
        owner = np.repeat(np.arange(len(first)), last - first + 1)
        up = parent[last]
        return np.where(up >= 0, owner[up], -1)

    # Step 3: relaxed amalgamation.
    keep, first = merge_contiguous(
        first, last, counts[first], tree_links(first, last),
        relax_small, relax_ratio, force_small)

    # Step 4: surviving supernodes in column order (a valid postorder:
    # children's columns precede their parents') and their links.
    last = last[keep]
    return first, last, tree_links(first, last)


def merge_contiguous(
    first: np.ndarray,
    last: np.ndarray,
    size: np.ndarray,
    sn_parent: np.ndarray,
    relax_small: int,
    relax_ratio: float,
    force_small: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The relaxed-amalgamation rule, on a supernode tree given as
    integers: each supernode's column range ``first..last`` (column
    order), its front ``size`` and its parent (-1 for roots).

    Leaves to root, a child merges into its parent when it immediately
    precedes the parent's columns (one CSQ needs a contiguous range) and
    either the merged front has at most ``force_small`` rows, or the child
    has at most ``relax_small`` columns and the merge adds at most a
    ``relax_ratio`` share of logically-zero entries to the merged front.
    The merged front is the child's columns stacked on the parent's
    front, because the child's update rows all lie in it.  Merges cascade
    (absorbing the last child makes the previous sibling
    column-contiguous), so the passes run to a fixpoint.

    Returns ``(keep, first)``: the surviving supernodes in column order
    (each keeps its last column) and their first columns.
    """
    lo, hi, size = first.tolist(), last.tolist(), size.tolist()
    sn_parent = sn_parent.tolist()
    merged = list(range(len(lo)))

    def find(k: int) -> int:
        while merged[k] != k:
            merged[k] = k = merged[merged[k]]
        return k

    candidates = [k for k, p in enumerate(sn_parent) if p >= 0]
    changed = True
    while changed:
        changed = False
        for k in candidates:
            root = find(sn_parent[k])
            if hi[k] + 1 != lo[root]:
                continue
            width = hi[k] - lo[k] + 1
            front = width + size[root]
            forced = front <= force_small
            if not forced and width > relax_small:
                continue
            exact = _front_entries(size[k]) + _front_entries(size[root])
            relaxed = _front_entries(front)
            if (not forced and relaxed > 0
                    and (relaxed - exact) / relaxed > relax_ratio):
                continue
            merged[k] = root
            lo[root], size[root] = lo[k], front
            changed = True
        candidates = [k for k in candidates if merged[k] == k]

    keep = np.array([k for k in range(len(lo)) if merged[k] == k],
                    dtype=np.int64)
    return keep, np.array(lo, dtype=np.int64)[keep]


def _link(first: np.ndarray, last: np.ndarray, sn_parent: np.ndarray,
          tails: list[np.ndarray]) -> list[Supernode]:
    """Supernodes with rows = own columns ++ ``tails[k]``, and links."""
    supernodes = [
        Supernode(index=k, first_col=c0, last_col=c1, parent=p,
                  rows=np.concatenate((np.arange(c0, c1 + 1, dtype=np.int64),
                                       tail)))
        for k, (c0, c1, p, tail) in enumerate(zip(
            first.tolist(), last.tolist(), sn_parent.tolist(), tails))
    ]
    for sn in supernodes:
        if sn.parent >= 0:
            supernodes[sn.parent].children.append(sn.index)
    return supernodes


def static_pivoting_stack(matrix: CSCMatrix) -> np.ndarray:
    """Compute a row permutation moving large entries onto the diagonal.

    Returns ``row_perm`` with ``row_perm[j]`` = the original row placed at
    row ``j``, i.e. the permuted matrix is ``A[row_perm, :]`` and its
    diagonal entry in column ``j`` is ``A[row_perm[j], j]``.

    Greedy phase: columns are visited by decreasing largest magnitude
    (``np.argsort(-best)``), and each takes its largest-magnitude row not
    yet taken; among equal magnitudes the lowest row index wins.  One
    ``lexsort`` by (column, -|a|) orders every column's rows at once.
    Augmentation (Kuhn's algorithm) then matches each column the greedy
    pass left over, in ascending column order, by a depth-first search
    for an augmenting path that tries a column's rows in ascending order.
    The search keeps its own stack, so chain length is not bounded by the
    interpreter's recursion limit.

    Raises ValueError if the matrix is structurally singular (no perfect
    matching between rows and columns exists).
    """
    n = matrix.n_rows
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("static pivoting requires a square matrix")
    ptr = matrix.indptr.tolist()
    rows = matrix.indices.tolist()

    # match_col[j] = row matched to column j; match_row[i] = column of row i.
    match_col = [-1] * n
    match_row = [-1] * n

    # Greedy phase.  ``best`` is each column's largest magnitude (NaN if
    # the column holds one, 0 if it is empty).
    mag = np.abs(matrix.data)
    lengths = np.diff(matrix.indptr)
    best = np.zeros(n)
    filled = lengths > 0
    if filled.any():
        best[filled] = np.maximum.reduceat(mag, matrix.indptr[:-1][filled])
    cols = np.repeat(np.arange(n, dtype=np.int64), lengths)
    by_size = matrix.indices[np.lexsort((-mag, cols))].tolist()
    for j in np.argsort(-best).tolist():
        for k in range(ptr[j], ptr[j + 1]):
            i = by_size[k]
            if match_row[i] < 0:
                match_row[i] = j
                match_col[j] = i
                break

    # Augmentation phase: an explicit-stack depth-first search per
    # unmatched column.  path_cols[d] is the column at depth d and
    # path_rows[d] the row it is trying; row path_rows[d] is matched to
    # path_cols[d + 1].  ``seen`` spans one search, as in Kuhn's method.
    for root in range(n):
        if match_col[root] >= 0:
            continue
        seen: set[int] = set()
        path_cols, path_rows, cursor = [root], [], [ptr[root]]
        while path_cols:
            k, end = cursor[-1], ptr[path_cols[-1] + 1]
            while k < end and rows[k] in seen:
                k += 1
            if k == end:  # column exhausted: back up to its parent row
                path_cols.pop()
                cursor.pop()
                if path_rows:
                    path_rows.pop()
                continue
            i = rows[k]
            seen.add(i)
            cursor[-1] = k + 1
            path_rows.append(i)
            if match_row[i] < 0:
                break
            path_cols.append(match_row[i])
            cursor.append(ptr[match_row[i]])
        if not path_cols:
            raise ValueError("matrix is structurally singular")
        for j, i in zip(path_cols, path_rows):
            match_row[i] = j
            match_col[j] = i

    # Column j should receive original row match_col[j].
    return np.array(match_col, dtype=np.int64)


def pattern_graph_compress(matrix: CSCMatrix) -> tuple[np.ndarray, np.ndarray]:
    """CSR-style (indptr, indices) adjacency of the symmetrized pattern.

    Self-loops (diagonal entries) are removed; each undirected edge appears
    in both endpoint's neighbor lists, sorted ascending.
    """
    coo = matrix.to_coo()
    off = coo.rows != coo.cols
    rows = np.concatenate([coo.rows[off], coo.cols[off]])
    cols = np.concatenate([coo.cols[off], coo.rows[off]])
    # Grouped by vertex (``rows``), neighbours ascending: the CSC
    # compression with the roles of rows and columns swapped.
    indptr, indices, _ = compress(matrix.n_cols, matrix.n_rows, cols, rows)
    return indptr, indices

"""Supernode detection and relaxed amalgamation (Section 2.3).

A *fundamental supernode* is a maximal run of consecutive columns
j, j+1, ..., j+k whose factor structures nest perfectly: each column's
structure is the previous one's minus its own index, and each column is the
etree parent of its predecessor.  The columns of a supernode share one CSQ
frontal matrix (Figure 4).

Pure fundamental supernodes are often tiny on irregular matrices, so like
every real multifrontal package we also perform *relaxed amalgamation*:
a child supernode is merged into its parent when the extra (logically zero)
entries this introduces are below a threshold.  This trades a little extra
compute for much larger, better-structured fronts — and directly shapes the
supernode-size distribution that Figure 6 studies.

A child merges only when it is column-contiguous with its parent, so
which siblings can fold depends on the postorder the ordering came in;
``repro.ordering.mindeg`` relies on this and emits small subtrees last.

Only column counts and parent pointers decide the partition, so detection
and amalgamation (:func:`amalgamate`) run on integers — O(n) plus one pass
over the surviving candidates per cascade round — and a row array is built
once per *surviving* supernode: from per-column structures in
:func:`find_supernodes`, or by one union per supernode in
:func:`supernodes_from_counts`, which is what ``symbolic_factorize`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.csc import CSCMatrix


@dataclass
class Supernode:
    """One supernode of the assembly tree.

    Attributes:
        index: position in postorder (0-based; parents follow children).
        first_col / last_col: column range [first_col, last_col] (inclusive).
        rows: sorted row indices of the front, the first ``n_cols`` of which
            are the supernode's own columns (CSQ coordinates, Figure 3).
        parent: index of the parent supernode, or -1 for roots.
        children: indices of child supernodes.
    """

    index: int
    first_col: int
    last_col: int
    rows: np.ndarray
    parent: int = -1
    children: list[int] = field(default_factory=list)

    @property
    def n_cols(self) -> int:
        """Number of columns factored in this supernode (N_k in the paper)."""
        return self.last_col - self.first_col + 1

    @property
    def front_size(self) -> int:
        """Rows/cols of the frontal CSQ matrix (|rows|)."""
        return len(self.rows)

    @property
    def n_update_rows(self) -> int:
        """Rows of the update matrix passed to the parent (U_k columns)."""
        return self.front_size - self.n_cols


def find_supernodes(
    parent: np.ndarray,
    structs: list[np.ndarray],
    relax_small: int = 8,
    relax_ratio: float = 0.3,
    force_small: int = 0,
) -> list[Supernode]:
    """Partition columns into supernodes and build the assembly forest.

    Args:
        parent: elimination-tree parent array.
        structs: per-column L structures from
            :func:`repro.symbolic.structure.column_structures`.
        relax_small: child supernodes with at most this many columns are
            candidates for amalgamation into their parent.
        relax_ratio: a merge is accepted when the fraction of logically-zero
            entries it introduces into the merged front stays below this.
        force_small: merges whose combined front stays at or below this size
            are always accepted (packages do this to avoid fronts smaller
            than the hardware's natural panel width — Spatula's tile).

    Returns:
        supernodes in postorder (children precede parents), with parent /
        children links filled in.
    """
    counts = np.fromiter(map(len, structs), dtype=np.int64, count=len(parent))
    first, last, sn_parent = amalgamate(
        parent, counts, relax_small, relax_ratio, force_small)
    return _link(first, last, sn_parent,
                 [structs[c1][1:] for c1 in last.tolist()])


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

    sn_parent = tree_links(first, last).tolist()

    # Step 3: relaxed amalgamation, leaves to root, on (first column,
    # front size) per candidate. A child merges only when it immediately
    # precedes its parent's columns (one CSQ needs a contiguous range);
    # the merged front is then the child's columns stacked on the
    # parent's front, because the child's update rows all lie in it.
    lo, hi, size = first.tolist(), last.tolist(), counts[first].tolist()
    merged = list(range(len(lo)))

    def find(k: int) -> int:
        while merged[k] != k:
            merged[k] = k = merged[merged[k]]
        return k

    # Merges cascade (absorbing the last child makes the previous sibling
    # column-contiguous), so iterate to a fixpoint.
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

    # Step 4: surviving supernodes in column order (a valid postorder:
    # children's columns precede their parents') and their links.
    keep = [k for k in range(len(lo)) if merged[k] == k]
    first, last = np.array(lo, dtype=np.int64)[keep], last[keep]
    return first, last, tree_links(first, last)


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


def _front_entries(front_size: int) -> int:
    """Lower-triangle entry count of a front, the amalgamation cost metric."""
    return front_size * (front_size + 1) // 2

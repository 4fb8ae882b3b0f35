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
The merge passes and the unions run in the compiled core
(``repro_merge`` / ``repro_sn_rows`` in ``repro/numeric/_core.c``).

The merge rule itself is :func:`merge_contiguous`.  The numeric engine,
the tile plan and the simulator all run on the partition this module
returns: the analysis's tree is the one assembly tree.
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
    return _link(first, last, sn_parent, *_front_rows(
        first, last, [structs[c1][1:] for c1 in last.tolist()]))


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
    from repro.numeric import compiled

    first, last, sn_parent = amalgamate(
        parent, counts, relax_small, relax_ratio, force_small)
    return _link(first, last, sn_parent, *compiled.supernode_rows(
        pattern.indptr, pattern.indices, first, last, sn_parent))


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

    Candidates (supernodes with a parent) are tried in index order, and
    each pass keeps those not yet merged, in that order; the zero share
    is a float division of the exact entry counts.

    Returns ``(keep, first)``: the surviving supernodes in column order
    (each keeps its last column) and their first columns.
    """
    from repro.numeric import compiled

    return compiled.merge_contiguous(first, last, size, sn_parent,
                                     relax_small, relax_ratio, force_small)


def _front_rows(first: np.ndarray, last: np.ndarray,
                tails: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, row_off)``: each supernode's columns ++ ``tails[k]``, flat."""
    fronts = [np.concatenate((np.arange(c0, c1 + 1, dtype=np.int64), tail))
              for c0, c1, tail in zip(first.tolist(), last.tolist(), tails)]
    row_off = np.zeros(len(fronts) + 1, dtype=np.int64)
    np.cumsum([len(f) for f in fronts], out=row_off[1:])
    return np.concatenate(fronts or [row_off[:0]]), row_off


def _link(first: np.ndarray, last: np.ndarray, sn_parent: np.ndarray,
          rows: np.ndarray, row_off: np.ndarray) -> list[Supernode]:
    """Supernodes with rows ``rows[row_off[k]:row_off[k + 1]]`` (own
    columns first), and links."""
    supernodes = [
        Supernode(index=k, first_col=c0, last_col=c1, parent=p,
                  rows=rows[start:end])
        for k, (c0, c1, p, start, end) in enumerate(zip(
            first.tolist(), last.tolist(), sn_parent.tolist(),
            row_off[:-1].tolist(), row_off[1:].tolist()))
    ]
    for sn in supernodes:
        if sn.parent >= 0:
            supernodes[sn.parent].children.append(sn.index)
    return supernodes

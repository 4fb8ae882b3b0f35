"""The supernodal assembly tree with precomputed extend-add maps.

Packages the output of supernode detection into the structure both the
functional multifrontal factorization and the Spatula simulator consume:
for every supernode, its front coordinates, its parent, and the local
positions its update matrix scatters into within the parent's front
(Figure 13's many-to-many gather structure, resolved at symbolic time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import Supernode


@dataclass
class AssemblyTree:
    """Everything symbolic the numeric factorization needs.

    Attributes:
        n: matrix dimension.
        supernodes: supernodes in postorder (children precede parents).
        child_maps: for each supernode k, the local positions in
            parent(k)'s front that k's update rows occupy, or None for
            roots / supernodes with empty updates.
        col_to_sn: supernode index owning each column.
    """

    n: int
    supernodes: list[Supernode]
    child_maps: list[np.ndarray | None]
    col_to_sn: np.ndarray

    @property
    def n_supernodes(self) -> int:
        return len(self.supernodes)

    def roots(self) -> list[int]:
        return [sn.index for sn in self.supernodes if sn.parent < 0]

    def postorder_indices(self) -> list[int]:
        """Supernode indices in a valid processing order.

        Supernodes are numbered by first column, and a parent's first column
        always exceeds every descendant's last column, so ascending index
        order is a valid bottom-up order.
        """
        return list(range(self.n_supernodes))

    def validate(self) -> None:
        """Check structural invariants (used heavily in tests).

        * supernode column ranges partition [0, n);
        * a supernode's rows start with exactly its own columns;
        * children precede parents in index order;
        * update coordinates are a subset of the parent's coordinates.
        """
        covered = np.zeros(self.n, dtype=bool)
        for sn in self.supernodes:
            cols = np.arange(sn.first_col, sn.last_col + 1)
            if covered[cols].any():
                raise ValueError(f"supernode {sn.index} overlaps a column")
            covered[cols] = True
            if not np.array_equal(sn.rows[: sn.n_cols], cols):
                raise ValueError(
                    f"supernode {sn.index} rows must start with own columns"
                )
            if sn.parent >= 0:
                if sn.parent <= sn.index:
                    raise ValueError("parent must follow child in postorder")
                parent = self.supernodes[sn.parent]
                update = sn.rows[sn.n_cols:]
                if len(np.setdiff1d(update, parent.rows, assume_unique=True)):
                    raise ValueError(
                        f"supernode {sn.index} update rows not contained "
                        f"in parent {sn.parent}"
                    )
        if not covered.all():
            raise ValueError("supernodes do not cover all columns")


def build_assembly_tree(
    n: int, supernodes: list[Supernode]
) -> AssemblyTree:
    """Assemble the tree structure and extend-add maps from supernodes.

    Every child's update rows are looked up in its parent's rows with one
    ``searchsorted`` over all supernodes' rows, keyed by
    ``supernode * n + row`` (sorted: rows ascend within a supernode).
    """
    n_sn = len(supernodes)
    col_to_sn = np.empty(n, dtype=np.int64)
    for sn in supernodes:
        col_to_sn[sn.first_col:sn.last_col + 1] = sn.index
    width, size, parent = np.array(
        [(sn.n_cols, sn.front_size, sn.parent) for sn in supernodes],
        dtype=np.int64).reshape(-1, 3).T
    child_maps: list[np.ndarray | None] = [None] * n_sn
    kids = np.flatnonzero((parent >= 0) & (size > width))
    if len(kids):
        start = np.cumsum(size) - size
        keys = np.concatenate([sn.rows for sn in supernodes]) \
            + np.repeat(np.arange(n_sn, dtype=np.int64) * n, size)
        n_update = size[kids] - width[kids]
        update = np.concatenate([supernodes[c].rows[supernodes[c].n_cols:]
                                 for c in kids.tolist()])
        key = update + np.repeat(parent[kids] * n, n_update)
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        missing = keys[at] != key
        if missing.any():
            bad = kids[np.searchsorted(np.cumsum(n_update),
                                       np.argmax(missing), side="right")]
            raise ValueError(
                f"update rows of supernode {bad} missing from parent"
            )
        pos = at - np.repeat(start[parent[kids]], n_update)
        for c, m in zip(kids.tolist(),
                        np.split(pos, np.cumsum(n_update)[:-1])):
            child_maps[c] = m
    return AssemblyTree(
        n=n, supernodes=supernodes, child_maps=child_maps,
        col_to_sn=col_to_sn,
    )


def initial_front_values(matrix: CSCMatrix, sn: Supernode) -> np.ndarray:
    """Dense Cholesky front initialized with A's lower-triangle entries.

    Entry (i, local_col) of the front receives A[rows[i], first_col +
    local_col] for every nonzero of A that falls inside the front's
    coordinate set; the rest starts at zero and is filled by updates.
    """
    size = sn.front_size
    front = np.zeros((size, size))
    pos_of = {int(r): i for i, r in enumerate(sn.rows)}
    for local_col in range(sn.n_cols):
        j = sn.first_col + local_col
        a_rows = matrix.col_rows(j)
        a_vals = matrix.col_vals(j)
        sel = a_rows >= j
        for r, v in zip(a_rows[sel], a_vals[sel]):
            i = pos_of.get(int(r))
            if i is not None:
                front[i, local_col] += v
    return front


def initial_front_values_lu(
    matrix_csc: CSCMatrix, matrix_csr: CSCMatrix, sn: Supernode
) -> np.ndarray:
    """Dense LU front: L part from A's columns, U part from A's rows.

    Args:
        matrix_csc: A in CSC (for column access).
        matrix_csr: A^T in CSC, i.e. A in CSR (for row access).
        sn: the supernode.
    """
    size = sn.front_size
    front = np.zeros((size, size))
    rows = sn.rows
    pos_of = {int(r): i for i, r in enumerate(rows)}
    for local_col in range(sn.n_cols):
        j = sn.first_col + local_col
        # L part (and the pivot block): entries at or below the diagonal.
        a_rows = matrix_csc.col_rows(j)
        a_vals = matrix_csc.col_vals(j)
        sel = a_rows >= j
        for r, v in zip(a_rows[sel], a_vals[sel]):
            i = pos_of.get(int(r))
            if i is not None:
                front[i, local_col] += v
        # U part: entries of row j strictly right of the diagonal.
        t_rows = matrix_csr.col_rows(j)
        t_vals = matrix_csr.col_vals(j)
        sel = t_rows > j
        for c, v in zip(t_rows[sel], t_vals[sel]):
            i = pos_of.get(int(c))
            if i is not None:
                front[local_col, i] += v
    return front

"""One-call symbolic factorization (the "Symbolic Factorization" box of
Figure 2).

Combines ordering, elimination-tree construction, structure prediction,
supernode detection, and assembly-tree construction into a single reusable
object.  As in real applications, this analysis is computed once per
nonzero pattern and amortized over many numeric factorizations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import span
from repro.ordering.api import fill_reducing_ordering, validate_permutation
from repro.sparse.csc import CSCMatrix
from repro.symbolic.assembly import AssemblyTree, build_assembly_tree
from repro.symbolic.etree import elimination_tree, postorder
from repro.symbolic.structure import (
    cholesky_flops_from_counts,
    column_counts,
    lu_flops_from_counts,
)
from repro.symbolic.supernodes import supernodes_from_counts

if TYPE_CHECKING:
    from repro.ordering.quality import OrderingScore

logger = logging.getLogger(__name__)


@dataclass
class SymbolicFactorization:
    """The reusable symbolic analysis of one sparsity pattern.

    Attributes:
        kind: "cholesky" or "lu".
        perm: fill-reducing permutation (new -> old).
        permuted: the permuted matrix the analysis describes.
        etree_parent: column elimination tree of the permuted matrix.
        tree: supernodal assembly tree with extend-add maps.
        factor_nnz: nonzeros of L (and of U for LU, per triangle).
        flops: factorization FLOPs (LU counts both triangles).
        quality: structural :class:`~repro.ordering.quality.OrderingScore`
            of the ordering actually used (fill, etree height, level
            occupancy), exported as ``ordering.quality.*`` gauges.
    """

    kind: str
    perm: np.ndarray
    permuted: CSCMatrix
    etree_parent: np.ndarray
    tree: AssemblyTree
    factor_nnz: int
    flops: int
    ordering: str = "amd"
    quality: "OrderingScore | None" = None

    @property
    def n(self) -> int:
        return self.permuted.n_rows

    @property
    def n_supernodes(self) -> int:
        return self.tree.n_supernodes

    def supernode_sizes(self) -> np.ndarray:
        """Front sizes (rows) of every supernode, for Figure 6."""
        return np.array(
            [sn.front_size for sn in self.tree.supernodes], dtype=np.int64
        )

    def supernode_flops(self) -> np.ndarray:
        """Per-supernode factorization FLOPs (see flops module for model)."""
        from repro.tasks.flops import supernode_factor_flops

        symmetric = self.kind == "cholesky"
        return np.array(
            [
                supernode_factor_flops(sn.front_size, sn.n_cols, symmetric)
                for sn in self.tree.supernodes
            ],
            dtype=np.int64,
        )


def symbolic_factorize(
    matrix: CSCMatrix,
    kind: str = "cholesky",
    ordering: str = "amd",
    perm: np.ndarray | None = None,
    relax_small: int = 8,
    relax_ratio: float = 0.3,
    force_small: int = 0,
) -> SymbolicFactorization:
    """Run the full symbolic analysis of a matrix.

    Args:
        matrix: square sparse matrix.  For LU it may be unsymmetric; the
            analysis uses the pattern of A + A^T (the standard
            static-pivoting setup, Section 2.4).
        kind: "cholesky" or "lu".
        ordering: fill-reducing ordering method (see
            :func:`repro.ordering.fill_reducing_ordering`).
        perm: optional explicit permutation overriding ``ordering``; a
            ValueError if it is not a permutation of ``range(n)``.
        relax_small / relax_ratio / force_small: amalgamation knobs (see
            :func:`repro.symbolic.supernodes.find_supernodes`).
    """
    if kind not in ("cholesky", "lu"):
        raise ValueError("kind must be 'cholesky' or 'lu'")
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("factorization requires a square matrix")

    if perm is None:
        perm = fill_reducing_ordering(matrix, ordering)
    else:
        perm = validate_permutation(perm, matrix.n_rows)
    # The analysis reads only the pattern of A (Cholesky) or A + A^T
    # (LU); symmetrizing commutes with permuting, so it is done once.
    base = matrix if kind == "cholesky" else matrix.pattern_symmetrized()

    # Postorder the elimination tree and fold that (fill-equivalent)
    # permutation into the ordering: afterwards each supernode's columns
    # are contiguous and every parent immediately follows its last child,
    # which both the supernode detector and the amalgamation rely on.
    # The postordered tree is the old one relabelled: no second pass.
    with span("symbolic.etree"):
        pattern = base.permuted(perm)
        parent = elimination_tree(pattern)
        post = postorder(parent)
        if not np.array_equal(post, np.arange(len(post))):
            perm = perm[post]
            rank = np.argsort(post)
            up = parent[post]
            parent = np.where(up >= 0, rank[up], up)
            pattern = base.permuted(perm)
    permuted = pattern if base is matrix else matrix.permuted(perm)
    # Count-only from here: no per-column structure is built.  The tree
    # is postordered, so its postorder is range(n).
    with span("symbolic.structure"):
        counts = column_counts(pattern, parent, post=range(len(parent)))
    with span("symbolic.supernodes"):
        supernodes = supernodes_from_counts(
            pattern, parent, counts, relax_small=relax_small,
            relax_ratio=relax_ratio, force_small=force_small,
        )
        tree = build_assembly_tree(matrix.n_rows, supernodes)

    if kind == "cholesky":
        flops = cholesky_flops_from_counts(counts)
    else:
        flops = lu_flops_from_counts(counts)

    # Score the ordering from the etree + counts the analysis already
    # computed (nearly free) and export ordering.quality.* gauges, so
    # every solve artifact carries a comparable OrderingScore.
    from repro.ordering.quality import export_quality_gauges, score_from_counts

    quality = score_from_counts(
        ordering, matrix.n_rows, matrix.nnz, parent, counts, kind=kind)
    export_quality_gauges(quality)

    logger.info(
        "symbolic [%s, %s]: n=%d, %d supernodes, nnz(L)=%d, %.3g GFLOP",
        kind, ordering, matrix.n_rows, tree.n_supernodes,
        int(counts.sum()), flops / 1e9,
    )
    return SymbolicFactorization(
        kind=kind,
        perm=perm,
        permuted=permuted,
        etree_parent=parent,
        tree=tree,
        factor_nnz=int(counts.sum()),
        flops=flops,
        ordering=ordering,
        quality=quality,
    )

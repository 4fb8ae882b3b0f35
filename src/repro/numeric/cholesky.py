"""Multifrontal sparse Cholesky factorization (Listing 2).

The functional model of the computation Spatula accelerates: traverse the
supernodal assembly tree leaves-to-root; at each supernode, assemble the
frontal CSQ matrix from A's entries plus the children's update matrices
(extend-add), run the blocked partial dense factorization, and pass the
Schur complement up as this supernode's update matrix.

Assembly uses the pattern-cached scatter maps of
:mod:`repro.numeric.engine`, the partial factorization is the blocked
BLAS-3 kernel of :mod:`repro.numeric.dense`, and with ``workers > 1``
independent supernodes run concurrently under
:func:`repro.numeric.schedule.run_scheduled` (each dispatched the moment
its last child finishes) — the result is bit-identical to the sequential
leaves-to-root order for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.numeric.engine import run_factor_job
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import SymbolicFactorization


def _supernode_triangle(rows: np.ndarray, n_cols: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (row, col) local index pairs of a supernode's stored
    lower-trapezoidal block: all (i, j) with j < n_cols and i >= j."""
    m = len(rows)
    lengths = m - np.arange(n_cols)
    jj = np.repeat(np.arange(n_cols), lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths[:-1])))
    ii = np.arange(int(lengths.sum())) - np.repeat(offsets, lengths) + jj
    return ii, jj


@dataclass
class CholeskyFactor:
    """The numeric output of multifrontal Cholesky.

    Attributes:
        symbolic: the analysis this factor was computed under.
        columns: per-supernode (rows, block) pairs, where ``block`` is the
            front's pivot panel (``len(rows) x n_cols``, C-ordered) holding
            final L values at global row coordinates ``rows``; the strict
            upper triangle of ``block[:n_cols]`` is unspecified.
        operands: per-supernode views of the same blocks in the form the
            supernodal solve reads them (see
            :meth:`repro.numeric.schedule.SupernodeJob.compute`).
        attribution: where the factorization's time went — level widths,
            scheduler evidence (``attribution["schedule"]``), worker
            occupancy, wall/busy seconds (see
            :func:`repro.numeric.engine.export_factor_metrics`).
    """

    symbolic: SymbolicFactorization
    columns: list[tuple[np.ndarray, np.ndarray]]
    operands: list[tuple] = field(repr=False, compare=False)
    attribution: dict | None = field(default=None, repr=False,
                                     compare=False)

    def to_csc(self) -> CSCMatrix:
        """Materialize L (of the *permuted* matrix) as CSC.

        Assembles whole supernode blocks at once with vectorized
        ``np.repeat`` / ``np.concatenate`` index arithmetic (no per-column
        Python loop).
        """
        rows_all: list[np.ndarray] = []
        cols_all: list[np.ndarray] = []
        vals_all: list[np.ndarray] = []
        for sn, (rows, block) in zip(
            self.symbolic.tree.supernodes, self.columns
        ):
            ii, jj = _supernode_triangle(rows, sn.n_cols)
            rows_all.append(rows[ii])
            cols_all.append(sn.first_col + jj)
            vals_all.append(block[ii, jj])
        n = self.symbolic.n
        coo = COOMatrix(
            n, n,
            np.concatenate(rows_all),
            np.concatenate(cols_all),
            np.concatenate(vals_all),
        )
        return CSCMatrix.from_coo(coo)

    def nnz(self) -> int:
        """Stored nonzeros of L (matches the symbolic prediction)."""
        return sum(
            sn.n_cols * sn.front_size - sn.n_cols * (sn.n_cols - 1) // 2
            for sn in self.symbolic.tree.supernodes
        )


def multifrontal_cholesky(
    matrix: CSCMatrix,
    symbolic: SymbolicFactorization,
    workers: int | None = None,
    block_size: int | None = None,
) -> CholeskyFactor:
    """Numerically factor a matrix under an existing symbolic analysis.

    Args:
        matrix: the *original* (unpermuted) SPD matrix; it is permuted with
            ``symbolic.perm`` internally, so the same analysis can be reused
            across many numeric factorizations (Figure 2's loop).
        workers: scheduler thread count (defaults to the global
            :mod:`repro.numeric.tuning` value; must be >= 1).  The factor
            is bit-identical for every worker count.
        block_size: dense-kernel panel width (defaults to tuning; must
            be >= 1).
    """
    if symbolic.kind != "cholesky":
        raise ValueError("symbolic analysis is not for Cholesky")
    job, attribution = run_factor_job(matrix, symbolic, workers, block_size)
    # Only lower triangles are meaningful — of each update matrix and of
    # each stored pivot block — and Cholesky only ever reads those.
    return CholeskyFactor(symbolic=symbolic,
                          columns=[front[:2] for front in job.fronts],
                          operands=job.operands, attribution=attribution)

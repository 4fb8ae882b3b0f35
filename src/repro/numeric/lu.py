"""Multifrontal sparse LU with static pivoting (Section 2.4).

Same structure as multifrontal Cholesky, with unsymmetric fronts: the
pivot panel holds L's N_k columns (and U11 on and above its diagonal),
the pivot rows right of it hold U12, and the trailing square is the
update matrix.  Static pivoting (row matching) happens before the
symbolic analysis; tiny pivots encountered during factorization are
bumped by ``sqrt(eps) * ||A||_max`` as in static-pivoted solvers.

Like the Cholesky side, assembly runs through the pattern-cached scatter
maps of :mod:`repro.numeric.engine`, the partial factorization is the
blocked BLAS-3 kernel, and ``workers > 1`` runs independent supernodes
concurrently under :func:`repro.numeric.schedule.run_scheduled` with
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.numeric.cholesky import _supernode_triangle
from repro.numeric.engine import run_factor_job
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import SymbolicFactorization


@dataclass
class LUFactors:
    """Numeric output of multifrontal LU.

    Attributes:
        symbolic: the analysis this factor was computed under.
        fronts: per-supernode (rows, panel, right), both C-ordered:
            ``panel`` (``len(rows) x n_cols``) holds L's columns (unit
            diagonal implicit) strictly below its diagonal and U11 on and
            above it; ``right`` (``n_cols x (len(rows) - n_cols)``) holds
            U12, the rest of U's rows.
        operands: the supernodal solve's views of the same blocks (as
            ``CholeskyFactor.operands``).
        perturbed_pivots: number of pivots the static-pivoting
            perturbation replaced during elimination (0 for
            well-conditioned diagonally dominant inputs).
        attribution: where the factorization's time went (same view as
            ``CholeskyFactor.attribution``).
    """

    symbolic: SymbolicFactorization
    fronts: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    operands: list[tuple] = field(repr=False, compare=False)
    perturbed_pivots: int = 0
    attribution: dict | None = field(default=None, repr=False,
                                     compare=False)

    def to_csc(self) -> tuple[CSCMatrix, CSCMatrix]:
        """Materialize (L, U) of the permuted matrix as CSC.

        L has unit diagonal (stored); U holds the pivots on its diagonal.
        Whole supernode blocks are assembled at once with vectorized
        ``np.repeat`` / ``np.concatenate`` index arithmetic.
        """
        n = self.symbolic.n
        l_rows, l_cols, l_vals = [], [], []
        u_rows, u_cols, u_vals = [], [], []
        for sn, (rows, panel, right) in zip(
            self.symbolic.tree.supernodes, self.fronts
        ):
            ii, jj = _supernode_triangle(rows, sn.n_cols)
            # L: column first_col + j holds rows[i] for i >= j; the
            # diagonal (i == j) is stored as the unit 1.0.
            vals = panel[ii, jj]
            vals[ii == jj] = 1.0
            l_rows.append(rows[ii])
            l_cols.append(sn.first_col + jj)
            l_vals.append(vals)
            # U: row first_col + j holds columns rows[i] for i >= j,
            # including the pivot diagonal.
            u_rows.append(sn.first_col + jj)
            u_cols.append(rows[ii])
            u_vals.append(np.hstack((panel[:sn.n_cols], right))[jj, ii])
        lower = CSCMatrix.from_coo(COOMatrix(
            n, n, np.concatenate(l_rows), np.concatenate(l_cols),
            np.concatenate(l_vals),
        ))
        upper = CSCMatrix.from_coo(COOMatrix(
            n, n, np.concatenate(u_rows), np.concatenate(u_cols),
            np.concatenate(u_vals),
        ))
        return lower, upper


def multifrontal_lu(
    matrix: CSCMatrix,
    symbolic: SymbolicFactorization,
    perturb: float | None = None,
    workers: int | None = None,
    block_size: int | None = None,
) -> LUFactors:
    """Numerically LU-factor a matrix under an existing symbolic analysis.

    Args:
        matrix: the original (unpermuted, already statically row-pivoted)
            matrix.
        symbolic: analysis with kind == "lu".
        perturb: small-pivot threshold; defaults to sqrt(eps) * max|A|.
        workers: scheduler thread count (defaults to the global tuning;
            must be >= 1; bit-identical for every N).
        block_size: dense-kernel panel width (defaults to tuning; must
            be >= 1).
    """
    if symbolic.kind != "lu":
        raise ValueError("symbolic analysis is not for LU")
    if perturb is None:
        amax = float(np.abs(matrix.data).max()) if matrix.nnz else 1.0
        perturb = np.sqrt(np.finfo(np.float64).eps) * amax

    job, attribution = run_factor_job(matrix, symbolic, workers, block_size,
                                      perturb)
    return LUFactors(symbolic=symbolic, fronts=job.fronts,
                     perturbed_pivots=int(job.perturbed.sum()),
                     operands=job.operands, attribution=attribution)

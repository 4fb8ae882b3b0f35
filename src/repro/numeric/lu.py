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

import numpy as np

from repro.numeric.engine import Factor, run_factor_job
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import SymbolicFactorization


def static_pivot_threshold(matrix: CSCMatrix) -> float:
    """The small-pivot threshold of static-pivoted LU,
    ``sqrt(eps) * max|A|`` (``sqrt(eps)`` for a matrix with no entries):
    the one bump :func:`multifrontal_lu` and the simulator's functional
    executor (:class:`repro.arch.functional.TileExecutor`) both apply."""
    amax = float(np.abs(matrix.data).max()) if matrix.nnz else 1.0
    return np.sqrt(np.finfo(np.float64).eps) * amax


def multifrontal_lu(
    matrix: CSCMatrix,
    symbolic: SymbolicFactorization,
    perturb: float | None = None,
    workers: int | None = None,
    block_size: int | None = None,
) -> Factor:
    """Numerically LU-factor a matrix under an existing symbolic analysis;
    the :class:`~repro.numeric.engine.Factor` it returns holds L and U.

    Args:
        matrix: the original (unpermuted, already statically row-pivoted)
            matrix.
        symbolic: analysis with kind == "lu".
        perturb: small-pivot threshold; defaults to
            :func:`static_pivot_threshold`.
        workers: scheduler thread count (default
            :data:`~repro.numeric.tuning.DEFAULT_WORKERS`; must be >= 1;
            bit-identical for every N).
        block_size: dense-kernel panel width (default
            :data:`~repro.numeric.tuning.DEFAULT_BLOCK_SIZE`; must be
            >= 1).
    """
    if symbolic.kind != "lu":
        raise ValueError("symbolic analysis is not for LU")
    if perturb is None:
        perturb = static_pivot_threshold(matrix)
    return run_factor_job(matrix, symbolic, workers, block_size, perturb)

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

from repro.numeric.engine import Factor, run_factor_job
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import SymbolicFactorization


def multifrontal_cholesky(
    matrix: CSCMatrix,
    symbolic: SymbolicFactorization,
    workers: int | None = None,
    block_size: int | None = None,
) -> Factor:
    """Numerically factor a matrix under an existing symbolic analysis;
    the :class:`~repro.numeric.engine.Factor` it returns holds L.

    Args:
        matrix: the *original* (unpermuted) SPD matrix; it is permuted with
            ``symbolic.perm`` internally, so the same analysis can be reused
            across many numeric factorizations (Figure 2's loop).
        workers: scheduler thread count (default
            :data:`~repro.numeric.tuning.DEFAULT_WORKERS`; must be >= 1).
            The factor is bit-identical for every worker count.
        block_size: dense-kernel panel width (default
            :data:`~repro.numeric.tuning.DEFAULT_BLOCK_SIZE`; must be
            >= 1).
    """
    if symbolic.kind != "cholesky":
        raise ValueError("symbolic analysis is not for Cholesky")
    return run_factor_job(matrix, symbolic, workers, block_size)

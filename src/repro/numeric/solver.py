"""End-to-end direct solver (the application loop of Figure 2).

``SparseSolver`` packages the full pipeline: fill-reducing ordering and
symbolic factorization once (``analyze``), then repeated numeric
factorizations (``factorize``) and cheap triangular solves (``solve``) as
matrix values evolve with a fixed pattern — the circuit-simulation /
physics-timestepping usage pattern that motivates the paper.

The analysis phase is amortized two ways: within one solver, the
pattern-cached scatter maps of :mod:`repro.numeric.engine` make every
``refactorize`` a pure-NumPy assembly; across solvers, the process-global
:class:`~repro.numeric.cache.AnalysisCache` shares the symbolic analysis
between instances built over the same pattern.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.numeric.cache import analysis_cache
from repro.numeric.cholesky import multifrontal_cholesky
from repro.numeric.engine import Factor, row_permutation_data_map
from repro.numeric.lu import multifrontal_lu
from repro.numeric.refinement import RefinementResult, iterative_refinement
from repro.numeric.supernodal_solve import solve_panel
from repro.obs import span
from repro.obs.metrics import global_registry
from repro.ordering.pivoting import apply_static_pivoting
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import SymbolicFactorization, symbolic_factorize

logger = logging.getLogger(__name__)


class SparseSolver:
    """Direct solver for sparse linear systems via Cholesky or LU.

    Usage::

        solver = SparseSolver(A, kind="cholesky")   # analyze + factorize
        x = solver.solve(b)
        solver.refactorize(A_new_values)            # same pattern, new values
        x2 = solver.solve(b2)

    Args:
        matrix: square sparse matrix.  For kind="cholesky" it must be SPD;
            for kind="lu" it may be any (structurally nonsingular) square
            matrix — static row pivoting is applied automatically.
        kind: "cholesky" or "lu".
        ordering: fill-reducing ordering method — any name registered in
            :mod:`repro.ordering.registry` ("amd", "nd", "rcm", "natural",
            plugins).
        workers: thread count of the numeric-phase scheduler (``None``
            is the default in :mod:`repro.numeric.tuning`; must be >= 1;
            see :mod:`repro.numeric.schedule` and docs/PERFORMANCE.md).
            The factor is bit-identical for every worker count.
        block_size: dense-kernel panel width (``None`` is the default in
            :mod:`repro.numeric.tuning`; must be >= 1).
        rhs_pad: batch-invariant solve width.  When > 1, every ``solve``
            with k <= rhs_pad right-hand sides runs as one zero-padded
            (n, rhs_pad) panel and the real columns are sliced out.
            Every dense kernel (per-supernode ``dtrsm`` and ``@`` panel
            updates) then sees batch-size-independent shapes and BLAS
            treats each column alike wherever it sits, so each response
            is *bit-identical* no matter how requests were batched — the
            guarantee the coalescing serve layer (:mod:`repro.serve`) is
            built on.  A 32-wide padded solve costs about twice a single
            right-hand side, not 32 times (docs/PERFORMANCE.md).
            Default 1 (off: solve at the natural width).
        use_cache: share the symbolic analysis through the process-global
            :func:`~repro.numeric.cache.analysis_cache` so repeated solver
            construction over one pattern skips ordering and symbolic
            factorization.

    The analysis uses the default supernode amalgamation; the numeric
    engine then merges small supernodes further for itself (see
    :func:`repro.numeric.engine.execution_tree`), so the fronts it
    factors are not a solver setting.
    """

    def __init__(
        self,
        matrix: CSCMatrix,
        kind: str = "cholesky",
        ordering: str = "amd",
        workers: int | None = None,
        block_size: int | None = None,
        rhs_pad: int = 1,
        use_cache: bool = True,
    ) -> None:
        if matrix.n_rows != matrix.n_cols:
            raise ValueError("solver requires a square matrix")
        if matrix.n_rows == 0:
            raise ValueError("solver requires a non-empty matrix (got 0x0)")
        _check_data_length(matrix, len(matrix.indices))
        if rhs_pad < 1:
            raise ValueError("rhs_pad must be >= 1")
        self.kind = kind
        self.ordering = ordering
        self.workers = workers
        self.block_size = block_size
        self.rhs_pad = rhs_pad
        # The pattern this solver was built for (refactorize validates
        # against it, so pattern changes fail loudly).
        self._src_indptr = matrix.indptr.copy()
        self._src_indices = matrix.indices.copy()
        self._row_perm: np.ndarray | None = None
        self._row_data_map: np.ndarray | None = None
        work = matrix
        if kind == "lu":
            work, self._row_perm = apply_static_pivoting(matrix)
            # Precompute the static-pivoting data map once: refactorize
            # then permutes new values with one gather instead of a COO
            # round trip per call.
            self._row_data_map = row_permutation_data_map(
                matrix, self._row_perm)
        elif kind != "cholesky":
            raise ValueError("kind must be 'cholesky' or 'lu'")
        if use_cache:
            self.symbolic: SymbolicFactorization = (
                analysis_cache().get_or_analyze(work, kind=kind,
                                                ordering=ordering))
        else:
            self.symbolic = symbolic_factorize(work, kind=kind,
                                               ordering=ordering)
        # The one gather a solve applies to b: static row pivoting (LU)
        # composed with the fill-reducing permutation.
        perm = self.symbolic.perm
        self._gather = perm if self._row_perm is None \
            else self._row_perm[perm]
        if self.symbolic.quality is not None:
            # A cache hit skips symbolic_factorize, so re-export the
            # ordering-quality gauges to reflect *this* solver's analysis.
            from repro.ordering.quality import export_quality_gauges

            export_quality_gauges(self.symbolic.quality)
        self._matrix = work
        self._factor: Factor | None = None
        self.factorize()

    # -- numeric phase ----------------------------------------------------

    def factorize(self) -> None:
        """(Re)run the numeric factorization for the current values."""
        self._factorize(self._matrix)

    def _factorize(self, matrix: CSCMatrix) -> None:
        """Factor ``matrix``, then commit it together with its factor: a
        rejected matrix (non-SPD, zero pivot) leaves the previous matrix
        and factor in place."""
        factor_fn = (multifrontal_cholesky if self.kind == "cholesky"
                     else multifrontal_lu)
        with span("numeric.factorize"):
            factor = factor_fn(
                matrix, self.symbolic,
                workers=self.workers, block_size=self.block_size,
            )
            self._matrix, self._factor = matrix, factor
        logger.info("numeric %s factorization: predicted factor nnz %d",
                    self.kind, self.symbolic.factor_nnz)

    def refactorize(self, matrix: CSCMatrix) -> None:
        """Refactor with new values on the same nonzero pattern.

        Raises ValueError if the pattern differs from the analyzed one, the
        values do not fill it, or they cannot be factored; the solver then
        keeps the old ones.
        """
        if not (
            np.array_equal(matrix.indptr, self._src_indptr)
            and np.array_equal(matrix.indices, self._src_indices)
        ):
            raise ValueError(
                "pattern changed; construct a new SparseSolver instead"
            )
        _check_data_length(matrix, len(self._src_indices))
        if self.kind == "lu":
            # Re-apply the *existing* row permutation: the pattern is
            # fixed, so the original matching stays structurally valid and
            # the permutation is a single precomputed gather.
            matrix = CSCMatrix(
                matrix.n_rows, matrix.n_cols,
                self._matrix.indptr, self._matrix.indices,
                matrix.data[self._row_data_map],
            )
        self._factorize(matrix)

    # -- solve phase --------------------------------------------------------

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for x by blocked panel solves over the factor's
        supernode structure.

        Args:
            b: right-hand side — a vector of length n, or an (n, k) array
                of k right-hand sides.  A panel is solved in one blocked
                sweep over the factor (every triangular operation carries
                all k columns), not column by column.
        """
        if np.iscomplexobj(b):
            raise ValueError("b must be real; the solver factors real "
                             "matrices only")
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2):
            raise ValueError("b must be a vector or an (n, k) array")
        n = self.symbolic.n
        if b.shape[0] != n:
            raise ValueError("dimension mismatch in solve")
        k = 1 if b.ndim == 1 else b.shape[1]
        # One gather in: b's rows in elimination order, as a private
        # panel the sweep solves in place.  Batch-invariant padding
        # widens it to a fixed (n, rhs_pad) panel so every dense kernel
        # runs at batch-size-independent shapes — column j's bits then
        # depend only on b[:, j], never on how many other columns rode
        # along (see the rhs_pad constructor doc).
        if k < self.rhs_pad:
            pb = np.zeros((n, self.rhs_pad))
            pb[:, :k] = b[self._gather].reshape(n, k)
        else:
            pb = b[self._gather].reshape(n, k)
        with span("numeric.solve"):
            solve_panel(self._factor, pb)
            reg = global_registry()
            reg.counter("numeric.solve.count").inc()
            reg.counter("numeric.solve.rhs").inc(k)
        # One scatter out: pb solves the permuted system, so
        # x[perm[i]] = pb[i] (row-wise; the padding stays behind).
        x = np.empty((n, k))
        x[self.symbolic.perm] = pb[:, :k]
        return x[:, 0] if b.ndim == 1 else x

    def solve_refined(self, matrix: CSCMatrix, b: np.ndarray,
                      max_iterations: int = 10,
                      tolerance: float = 1e-14) -> RefinementResult:
        """Solve with iterative refinement (the static-pivoting safety
        net; see :mod:`repro.numeric.refinement`).

        Args:
            matrix: the original matrix A (for residual computation).
            b: right-hand side.
        """
        return iterative_refinement(matrix, self.solve, b,
                                    max_iterations=max_iterations,
                                    tolerance=tolerance)

    @property
    def factor(self) -> Factor:
        """The current numeric factor; its ``attribution`` says where
        the factorization that produced it spent its time."""
        return self._factor

    def factor_csc(self) -> tuple[CSCMatrix, CSCMatrix | None]:
        """The numeric factor of the permuted matrix as CSC.

        Returns ``(L, None)`` for Cholesky and ``(L, U)`` for LU.  Used by
        the differential-verification subsystem for exact (bit-level)
        factor comparison across configurations.
        """
        return self._factor.to_csc()

    def residual_norm(self, matrix: CSCMatrix, x: np.ndarray,
                      b: np.ndarray) -> float:
        """Relative residual ||Ax - b|| / ||b|| for verification."""
        r = matrix.matvec(x) - b
        denom = float(np.linalg.norm(b)) or 1.0
        return float(np.linalg.norm(r)) / denom

    @property
    def factor_nnz(self) -> int:
        """Stored factor nonzeros (L, or L + U for LU), counted from the
        factor's fronts (:meth:`~repro.numeric.engine.Factor.nnz`)."""
        return self._factor.nnz()


def _check_data_length(matrix: CSCMatrix, nnz: int) -> None:
    """Values that do not fill the pattern would be scattered out of
    line (or out of bounds) deep inside the factorization."""
    if len(matrix.data) != nnz:
        raise ValueError(f"matrix has {len(matrix.data)} values for "
                         f"{nnz} stored entries")

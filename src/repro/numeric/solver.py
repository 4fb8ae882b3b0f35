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
from repro.numeric.cholesky import CholeskyFactor, multifrontal_cholesky
from repro.numeric.engine import row_permutation_data_map
from repro.numeric.lu import LUFactors, multifrontal_lu
from repro.numeric.refinement import RefinementResult, iterative_refinement
from repro.numeric.supernodal_solve import cholesky_solve, lu_solve
from repro.numeric.triangular import (
    solve_lower_csc,
    solve_upper_csc,
    solve_upper_csc_direct,
)
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
            "local_refine", plugins), or "auto" to resolve the best known
            config for this matrix's family from the autotuner experience
            store (``tune_store``; falls back to "amd" with no store or
            no recorded experience).  "auto" is resolved to a concrete
            method *before* the analysis-cache key is formed, so cached
            analyses are shared with explicitly-ordered solvers.
        tune_store: autotuner experience database for ``ordering="auto"``
            — a :class:`~repro.ordering.autotune.TrialStore` or its directory
            path (see :mod:`repro.ordering.autotune`).  Ignored for
            concrete orderings.
        workers: thread count of the numeric-phase scheduler (``None``
            defers to the global :mod:`repro.numeric.tuning`; must be
            >= 1; see :mod:`repro.numeric.schedule` and
            docs/PERFORMANCE.md).  The factor is bit-identical for every
            worker count.
        block_size: dense-kernel panel width (``None`` defers to tuning;
            must be >= 1).
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
    """

    def __init__(
        self,
        matrix: CSCMatrix,
        kind: str = "cholesky",
        ordering: str = "amd",
        relax_small: int = 8,
        relax_ratio: float = 0.3,
        workers: int | None = None,
        block_size: int | None = None,
        rhs_pad: int = 1,
        use_cache: bool = True,
        tune_store=None,
    ) -> None:
        if matrix.n_rows != matrix.n_cols:
            raise ValueError("solver requires a square matrix")
        if rhs_pad < 1:
            raise ValueError("rhs_pad must be >= 1")
        if ordering == "auto":
            # Resolve against the autotuner experience store before the
            # cache key is formed: the analysis cache must only ever see
            # concrete method names.  Tuned block_size/workers fill in
            # only where the caller left the knob at its default.
            from repro.ordering.autotune import resolve_auto

            tuned = resolve_auto(matrix, kind=kind, store=tune_store)
            ordering = tuned.ordering
            if block_size is None and tuned.block_size is not None:
                block_size = tuned.block_size
            if workers is None and tuned.workers is not None:
                workers = tuned.workers
            logger.info("ordering=auto resolved to %s (%s)",
                        ordering, tuned.source)
        self.kind = kind
        self.ordering = ordering  # concrete method ("auto" already resolved)
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
                analysis_cache().get_or_analyze(
                    work, kind=kind, ordering=ordering,
                    relax_small=relax_small, relax_ratio=relax_ratio,
                )
            )
        else:
            self.symbolic = symbolic_factorize(
                work, kind=kind, ordering=ordering,
                relax_small=relax_small, relax_ratio=relax_ratio,
            )
        if self.symbolic.quality is not None:
            # A cache hit skips symbolic_factorize, so re-export the
            # ordering-quality gauges to reflect *this* solver's analysis.
            from repro.ordering.quality import export_quality_gauges

            export_quality_gauges(self.symbolic.quality)
        self._matrix = work
        self._chol: CholeskyFactor | None = None
        self._lu: LUFactors | None = None
        self._lower: CSCMatrix | None = None
        self._upper: CSCMatrix | None = None
        self.factorize()

    # -- numeric phase ----------------------------------------------------

    def factorize(self) -> None:
        """(Re)run the numeric factorization for the current values."""
        self._factorize(self._matrix)

    def _factorize(self, matrix: CSCMatrix) -> None:
        """Factor ``matrix``, then commit it together with its factor: a
        rejected matrix (non-SPD, zero pivot) leaves the previous matrix,
        factor and CSC mirrors in place."""
        factor_fn = (multifrontal_cholesky if self.kind == "cholesky"
                     else multifrontal_lu)
        with span("numeric.factorize"):
            factor = factor_fn(
                matrix, self.symbolic,
                workers=self.workers, block_size=self.block_size,
            )
            self._matrix = matrix
            if self.kind == "cholesky":
                self._chol = factor
            else:
                self._lu = factor
            # CSC mirrors are materialized lazily (only the "csc" solve
            # method and factor_nnz need them).
            self._lower = None
            self._upper = None
        logger.info("numeric %s factorization: predicted factor nnz %d",
                    self.kind, self.symbolic.factor_nnz)

    def refactorize(self, matrix: CSCMatrix) -> None:
        """Refactor with new values on the same nonzero pattern.

        Raises ValueError if the pattern differs from the analyzed one or
        the values cannot be factored; the solver then keeps the old ones.
        """
        if not (
            np.array_equal(matrix.indptr, self._src_indptr)
            and np.array_equal(matrix.indices, self._src_indices)
        ):
            raise ValueError(
                "pattern changed; construct a new SparseSolver instead"
            )
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

    def _ensure_csc(self) -> None:
        if self._lower is not None:
            return
        if self.kind == "cholesky":
            self._lower = self._chol.to_csc()
        else:
            self._lower, self._upper = self._lu.to_csc()

    # -- solve phase --------------------------------------------------------

    def solve(self, b: np.ndarray, method: str = "supernodal"
              ) -> np.ndarray:
        """Solve A x = b for x.

        Args:
            b: right-hand side — a vector of length n, or an (n, k) array
                of k right-hand sides.  A panel is solved in one blocked
                sweep over the factor (every triangular operation carries
                all k columns), not column by column.
            method: "supernodal" (blocked panel solves over the factor's
                supernode structure, the multifrontal-native path) or
                "csc" (simple column-at-a-time substitution; used as an
                independent oracle in tests).
        """
        if method not in ("supernodal", "csc"):
            raise ValueError("method must be 'supernodal' or 'csc'")
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2):
            raise ValueError("b must be a vector or an (n, k) array")
        if b.shape[0] != self.symbolic.n:
            raise ValueError("dimension mismatch in solve")
        k = 1 if b.ndim == 1 else b.shape[1]
        # Batch-invariant padding: widen to a fixed (n, rhs_pad) panel so
        # every dense kernel runs at batch-size-independent shapes —
        # column j's bits then depend only on b[:, j], never on how many
        # other columns rode along (see the rhs_pad constructor doc).
        padded_from = None
        if self.rhs_pad > 1 and k < self.rhs_pad:
            wide = np.zeros((b.shape[0], self.rhs_pad), dtype=np.float64)
            wide[:, :k] = b if b.ndim == 2 else b[:, None]
            padded_from = b.ndim
            b = wide
        perm = self.symbolic.perm
        with span("numeric.solve"):
            if method == "csc":
                self._ensure_csc()
            if self.kind == "cholesky":
                pb = b[perm]
                if method == "supernodal":
                    px = cholesky_solve(self._chol, pb)
                else:
                    y = solve_lower_csc(self._lower, pb)
                    px = solve_upper_csc(self._lower, y)
            else:
                # A_work = P_row A; system P_row A x = P_row b.
                pb = b[self._row_perm][perm]
                if method == "supernodal":
                    px = lu_solve(self._lu, pb)
                else:
                    y = solve_lower_csc(self._lower, pb,
                                        unit_diagonal=True)
                    px = solve_upper_csc_direct(self._upper, y)
            reg = global_registry()
            reg.counter("numeric.solve.count").inc()
            reg.counter("numeric.solve.rhs").inc(k)
        # Undo the fill-reducing (symmetric) permutation: px solves the
        # permuted system, so x[perm[i]] = px[i] (row-wise for panels).
        x = np.empty_like(px)
        x[perm] = px
        if padded_from is not None:
            x = x[:, 0] if padded_from == 1 else x[:, :k]
        return x

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
    def factor(self) -> CholeskyFactor | LUFactors:
        """The current numeric factor; its ``attribution`` says where
        the factorization that produced it spent its time."""
        return self._chol if self.kind == "cholesky" else self._lu

    def factor_csc(self) -> tuple[CSCMatrix, CSCMatrix | None]:
        """The numeric factor of the permuted matrix as CSC.

        Returns ``(L, None)`` for Cholesky and ``(L, U)`` for LU.  Used by
        the differential-verification subsystem for exact (bit-level)
        factor comparison across configurations.
        """
        self._ensure_csc()
        return self._lower, self._upper

    def residual_norm(self, matrix: CSCMatrix, x: np.ndarray,
                      b: np.ndarray) -> float:
        """Relative residual ||Ax - b|| / ||b|| for verification."""
        r = matrix.matvec(x) - b
        denom = float(np.linalg.norm(b)) or 1.0
        return float(np.linalg.norm(r)) / denom

    @property
    def factor_nnz(self) -> int:
        """Stored factor nonzeros (L, or L + U for LU)."""
        self._ensure_csc()
        count = self._lower.nnz
        if self._upper is not None:
            count += self._upper.nnz
        return count

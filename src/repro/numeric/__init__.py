"""Numeric factorization and solve (the functional model).

This subpackage is the *algorithmic* reference implementation of everything
Spatula accelerates: dense tile kernels, multifrontal Cholesky and LU over
CSQ fronts, sparse triangular solves, and an end-to-end ``analyze /
factorize / solve`` API mirroring the solver structure of Figure 2.

The Spatula simulator (:mod:`repro.arch`) models the *timing* of this exact
computation; tests verify the two agree on work performed, and that this
model's factors satisfy ||A - LL^T|| (resp. ||A - LU||) ~ machine epsilon.

Performance machinery (see ``docs/PERFORMANCE.md``): blocked BLAS-3 dense
kernels with a :mod:`~repro.numeric.tuning` block-size knob, a
dependence-count thread scheduler (:mod:`~repro.numeric.schedule`,
bit-identical for every worker count), pattern-cached assembly maps
(:mod:`~repro.numeric.engine`), and a process-global
:class:`~repro.numeric.cache.AnalysisCache`.
"""

from repro.numeric.dense import (
    dense_cholesky,
    dense_lu_nopivot,
    solve_lower_dense,
    solve_upper_dense,
    tsolve_lower,
    tsolve_upper,
)
from repro.numeric.cache import AnalysisCache, analysis_cache
from repro.numeric.cholesky import CholeskyFactor, multifrontal_cholesky
from repro.numeric.lu import LUFactors, multifrontal_lu
from repro.numeric.triangular import (
    solve_lower_csc,
    solve_upper_csc,
)
from repro.numeric.refinement import RefinementResult, iterative_refinement
from repro.numeric.supernodal_solve import cholesky_solve, lu_solve
from repro.numeric.schedule import ScheduleStats
from repro.numeric.solver import SparseSolver
from repro.numeric.tuning import NumericTuning, get_tuning, set_tuning, tuned

__all__ = [
    "ScheduleStats",
    "dense_cholesky",
    "dense_lu_nopivot",
    "solve_lower_dense",
    "solve_upper_dense",
    "tsolve_lower",
    "tsolve_upper",
    "AnalysisCache",
    "analysis_cache",
    "CholeskyFactor",
    "multifrontal_cholesky",
    "LUFactors",
    "multifrontal_lu",
    "solve_lower_csc",
    "solve_upper_csc",
    "RefinementResult",
    "iterative_refinement",
    "cholesky_solve",
    "lu_solve",
    "SparseSolver",
    "NumericTuning",
    "get_tuning",
    "set_tuning",
    "tuned",
]

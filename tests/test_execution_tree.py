"""The numeric engine's execution tree is the analysis's own tree.

``numeric_context`` builds on ``symbolic.tree``: the engine merges no
supernodes of its own, so the coarsening it factors on is the one that
merges nothing, and the engine, ``TileExecutor`` and the simulator share
one partition.  Every stored front has the rows and columns of the
supernode it stands for, and the solutions computed on that tree agree
with a dense reference solve.
"""

import numpy as np
import pytest

from repro.numeric import SparseSolver
from repro.numeric.engine import numeric_context
from repro.symbolic import symbolic_factorize
from repro.verify.generators import build_case, family_names
from repro.verify.oracle import (
    backward_error,
    backward_tolerance,
    forward_tolerance,
)

from .test_symbolic_golden import LADDER

FUZZ = [f"{family}@{seed}" for family in family_names() for seed in (0, 5)]


def _case(label):
    if label in LADDER:
        kind, gen = LADDER[label]
        return gen(), kind, True
    family, seed = label.split("@")
    case = build_case(family, int(seed))
    return case.matrix, case.kind, case.expect == "ok"


@pytest.mark.parametrize("label", sorted(LADDER) + FUZZ)
def test_execution_tree_is_a_coarsening_by_the_merge_rule(label):
    """The engine's tree is the analysis's tree, the coarsening that
    merges nothing: the context is built on ``symbolic.tree`` and every
    stored front has the rows and columns of its supernode."""
    matrix, kind, solvable = _case(label)
    sym = symbolic_factorize(matrix, kind=kind)
    ctx = numeric_context(sym, matrix)
    assert ctx.tree is sym.tree
    supernodes = sym.tree.supernodes
    assert len(ctx.rows) == len(supernodes)
    assert all(np.array_equal(rows, sn.rows)
               for rows, sn in zip(ctx.rows, supernodes))
    if not solvable:
        return
    solver = SparseSolver(matrix, kind=kind, use_cache=False)
    supernodes = solver.symbolic.tree.supernodes
    fronts = solver.factor.fronts
    assert len(fronts) == len(supernodes)
    for (rows, panel, _), sn in zip(fronts, supernodes):
        assert np.array_equal(rows, sn.rows)
        assert panel.shape == (sn.front_size, sn.n_cols)


@pytest.mark.parametrize("label", sorted(LADDER) + FUZZ)
def test_solutions_agree_with_the_symbolic_tree(label):
    """A solve on the symbolic tree meets the backward-error budget and,
    where no pivot was bumped and the matrix is not near singular,
    agrees with a dense LAPACK solve within the forward tolerance."""
    matrix, kind, solvable = _case(label)
    if not solvable:
        pytest.skip("the fuzz case is meant to be rejected")
    n = matrix.n_rows
    b = np.random.default_rng(3).standard_normal(n)
    # Tolerances first: from the dtype and the condition estimate.
    dense = matrix.to_dense()
    cond = float(np.linalg.cond(dense, 1))
    fwd_tol = forward_tolerance(cond, n)
    solver = SparseSolver(matrix, kind=kind, use_cache=False)
    bumped = getattr(solver.factor, "perturbed_pivots", 0) > 0
    x = solver.solve(b)
    assert backward_error(matrix, x, b) <= backward_tolerance(n, bumped)
    if not bumped and np.isfinite(cond) and cond < 1e12:
        x_ref = np.linalg.solve(dense, b)
        diff = np.linalg.norm(x - x_ref) / max(np.linalg.norm(x_ref), 1e-300)
        assert diff <= fwd_tol, (diff, fwd_tol, cond)

"""The numeric engine's execution tree.

``numeric_context`` factors on ``execution_tree(symbolic.tree)``: the
symbolic supernodes with each column-contiguous child merged into its
parent where the amalgamation rule accepts it under the engine's
``MERGE_*`` constants.  The symbolic analysis (and the simulator reading
it) keeps its own partition; only the numeric engine's fronts change.
"""

import numpy as np
import pytest

from repro.numeric import SparseSolver, engine
from repro.numeric.engine import execution_tree, numeric_context
from repro.sparse import CSCMatrix, circuit_like, grid_laplacian_3d
from repro.symbolic import symbolic_factorize
from repro.verify.generators import build_case, family_names
from repro.verify.oracle import (
    backward_error,
    backward_tolerance,
    forward_tolerance,
)

from .golden_oracles import _front_entries

#: The four ladder solver matrices at the sizes tests/test_symbolic_golden
#: uses (same generators, same seed).
LADDER = {
    "spd3d": (lambda: grid_laplacian_3d(8, 8, 8, seed=2023), "cholesky"),
    "circuit_lu": (lambda: circuit_like(
        1500, hub_fraction=0.02, aspect=12, seed=2023), "lu"),
    "tenant_spd": (lambda: grid_laplacian_3d(12, 12, 12, seed=2023),
                   "cholesky"),
    "tenant_lu": (lambda: circuit_like(
        2000, hub_fraction=0.05, aspect=16, seed=2023), "lu"),
}
FUZZ = [f"{family}@{seed}" for family in family_names() for seed in (0, 5)]


def _case(label):
    if label in LADDER:
        gen, kind = LADDER[label]
        return gen(), kind, True
    family, seed = label.split("@")
    case = build_case(family, int(seed))
    return case.matrix, case.kind, case.expect == "ok"


def _no_merge(monkeypatch):
    """The engine factors on the symbolic tree itself."""
    monkeypatch.setattr(engine, "MERGE_WIDTH", 0)
    monkeypatch.setattr(engine, "MERGE_FRONT", 0)


def _reference_coarsening(supernodes, width, ratio, front_max):
    """The merge rule on whole supernodes, stated merge by merge with
    row-set unions (as tests/golden_oracles.py states it for fundamental
    supernodes): ``(first_col, last_col, rows, parent)`` per result, the
    parent found from the first row below the result's columns."""
    merged = list(range(len(supernodes)))

    def find(k):
        while merged[k] != k:
            k = merged[k]
        return k

    cols = {k: (sn.first_col, sn.last_col) for k, sn in enumerate(supernodes)}
    rows = {k: sn.rows for k, sn in enumerate(supernodes)}
    changed = True
    while changed:
        changed = False
        for k, sn in enumerate(supernodes):
            if sn.parent < 0:
                continue
            root_k, root_p = find(k), find(sn.parent)
            if root_k == root_p:
                continue
            (c0, c1), (p0, p1) = cols[root_k], cols[root_p]
            if c1 + 1 != p0:
                continue
            union = np.union1d(rows[root_k], rows[root_p])
            forced = len(union) <= front_max
            if not forced and c1 - c0 + 1 > width:
                continue
            exact = (_front_entries(len(rows[root_k]))
                     + _front_entries(len(rows[root_p])))
            relaxed = _front_entries(len(union))
            if not forced and (relaxed - exact) / relaxed > ratio:
                continue
            merged[root_k] = root_p
            cols[root_p], rows[root_p] = (c0, p1), union
            del cols[root_k], rows[root_k]
            changed = True
    result = sorted(cols.values())
    owner = np.empty(supernodes[-1].last_col + 1, dtype=np.int64)
    for i, (c0, c1) in enumerate(result):
        owner[c0:c1 + 1] = i
    out = []
    for k in sorted(cols, key=lambda k: cols[k][0]):
        (c0, c1), r = cols[k], rows[k]
        below = r[r > c1]
        out.append((c0, c1, r, int(owner[below[0]]) if len(below) else -1))
    return out


@pytest.mark.parametrize("label", sorted(LADDER) + FUZZ)
def test_execution_tree_is_a_coarsening_by_the_merge_rule(label):
    matrix, kind, _ = _case(label)
    sym = symbolic_factorize(matrix, kind=kind)
    tree = execution_tree(sym.tree)
    tree.validate()
    # A contiguous run of whole symbolic supernodes each.
    starts = {sn.first_col for sn in sym.tree.supernodes}
    ends = {sn.last_col for sn in sym.tree.supernodes}
    assert all(sn.first_col in starts and sn.last_col in ends
               for sn in tree.supernodes)
    want = _reference_coarsening(sym.tree.supernodes, engine.MERGE_WIDTH,
                                 engine.MERGE_RATIO, engine.MERGE_FRONT)
    got = [(sn.first_col, sn.last_col, sn.rows, sn.parent)
           for sn in tree.supernodes]
    assert len(got) == len(want)
    for (c0, c1, rows, parent), (w0, w1, w_rows, w_parent) in zip(got, want):
        assert (c0, c1, parent) == (w0, w1, w_parent)
        assert np.array_equal(rows, w_rows)
    if label in LADDER:
        assert tree.n_supernodes < sym.n_supernodes


def test_a_tree_with_nothing_to_merge_comes_back_unchanged(monkeypatch):
    # No child at all (a diagonal), one supernode (a dense block), and
    # any tree once the rule accepts nothing.
    dense = CSCMatrix.from_dense(np.eye(6) * 4 + np.ones((6, 6)))
    for matrix in (CSCMatrix.identity(5), dense):
        tree = symbolic_factorize(matrix).tree
        assert execution_tree(tree) is tree
    _no_merge(monkeypatch)
    for gen, kind in LADDER.values():
        tree = symbolic_factorize(gen(), kind=kind).tree
        assert execution_tree(tree) is tree


@pytest.mark.parametrize("label", sorted(LADDER) + FUZZ)
def test_solutions_agree_with_the_symbolic_tree(monkeypatch, label):
    matrix, kind, solvable = _case(label)
    if not solvable:
        pytest.skip("the fuzz case is meant to be rejected")
    n = matrix.n_rows
    b = np.random.default_rng(3).standard_normal(n)
    # Tolerances first: from the dtype and the condition estimate.
    cond = float(np.linalg.cond(matrix.to_dense(), 1))
    fwd_tol = forward_tolerance(cond, n)
    merged = SparseSolver(matrix, kind=kind, use_cache=False)
    _no_merge(monkeypatch)
    plain = SparseSolver(matrix, kind=kind, use_cache=False)
    assert len(merged.factor.fronts) <= len(plain.factor.fronts)
    bumped = getattr(merged.factor, "perturbed_pivots", 0) \
        + getattr(plain.factor, "perturbed_pivots", 0)
    x, x_ref = merged.solve(b), plain.solve(b)
    assert backward_error(matrix, x, b) <= backward_tolerance(n, bumped > 0)
    if not bumped and np.isfinite(cond) and cond < 1e12:
        diff = np.linalg.norm(x - x_ref) / max(np.linalg.norm(x_ref), 1e-300)
        assert diff <= fwd_tol, (diff, fwd_tol, cond)


def _bits(matrix, kind, workers):
    solver = SparseSolver(matrix, kind=kind, workers=workers, rhs_pad=32,
                          use_cache=False)
    factor = solver.factor
    blocks = factor.fronts
    rng = np.random.default_rng(11)
    return [a for block in blocks for a in block] + [
        solver.solve(rng.standard_normal(matrix.n_rows)),
        solver.solve(rng.standard_normal((matrix.n_rows, 32)))]


@pytest.mark.parametrize("label", sorted(LADDER))
def test_same_bits_across_workers_and_grouping(monkeypatch, label):
    matrix, kind, _ = _case(label)
    reference = _bits(matrix, kind, 1)
    for limit in (0, engine.GROUP_FRONT_MAX, 10**9):
        monkeypatch.setattr(engine, "GROUP_FRONT_MAX", limit)
        for workers in (1, 2, 4):
            got = _bits(matrix, kind, workers)
            assert len(got) == len(reference)
            assert all(np.array_equal(a, b)
                       for a, b in zip(reference, got)), (limit, workers)


@pytest.mark.parametrize("label", sorted(LADDER))
def test_rhs_pad_column_position_identity(label):
    """A right-hand side's bits do not depend on where it sits in a
    padded panel, on the merged tree as on any other."""
    matrix, kind, _ = _case(label)
    solver = SparseSolver(matrix, kind=kind, rhs_pad=32, use_cache=False)
    ctx = numeric_context(solver.symbolic, solver._matrix)
    assert ctx.tree is not solver.symbolic.tree
    rng = np.random.default_rng(5)
    b = rng.standard_normal(matrix.n_rows)
    alone = solver.solve(b)
    for j in (0, 1, 7, 31):
        panel = rng.standard_normal((matrix.n_rows, 32))
        panel[:, j] = b
        assert np.array_equal(solver.solve(panel)[:, j], alone)
        assert np.array_equal(solver.solve(panel[:, :j + 1])[:, j], alone)

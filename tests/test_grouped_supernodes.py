"""Grouped small supernodes in the numeric engine.

A supernode whose front has at most ``GROUP_FRONT_MAX`` rows is grouped:
its children's update blocks sit side by side in one arena and its
extend-add maps are cached in the pattern's ``NumericContext``; a parent
above the threshold computes its children's offsets on the fly.  Every
entry receives the same additions in the same order either way, so the
factors and solutions must be bit-equal with nothing grouped, with
everything grouped, and at the default — at every worker count, since
maximal grouped subtrees are also the scheduler's tasks.
"""

import sys
import threading

import numpy as np
import pytest

from repro.numeric import SparseSolver, engine
from repro.numeric.engine import numeric_context, row_permutation_data_map
from repro.ordering.pivoting import apply_static_pivoting
from repro.sparse import circuit_like, grid_laplacian_3d
from repro.sparse.csc import CSCMatrix
from repro.verify.generators import build_case, family_names

from .golden_oracles import _arange_csc

ALL = 10**9   # a threshold above every front: everything grouped

#: Named matrices beside the fuzz families; the last two have fronts on
#: both sides of the default threshold.
NAMED = {
    "grid8": (lambda: grid_laplacian_3d(8, 8, 8, seed=1), "cholesky"),
    "circuit1000": (lambda: circuit_like(1000, seed=3), "lu"),
    "grid10": (lambda: grid_laplacian_3d(10, 10, 10, seed=1), "cholesky"),
    "circuit2000": (lambda: circuit_like(2000, seed=3), "lu"),
}
STRADDLING = {"cholesky": "grid10", "lu": "circuit2000"}

CASES = [(f"{family}@{seed}", family, seed)
         for family in family_names() for seed in (3, 11)
         if build_case(family, seed).expect == "ok"]


def _matrix(family, seed=0):
    if family in NAMED:
        gen, kind = NAMED[family]
        return gen(), kind
    case = build_case(family, seed)
    return case.matrix, case.kind


def _outputs(matrix, kind, workers):
    """Every stored block, the bump count, and solutions at k=1 (padded
    to 32 and not) and k=32."""
    solver = SparseSolver(matrix, kind=kind, workers=workers, rhs_pad=32,
                          use_cache=False)
    factor = solver.factor
    blocks = factor.fronts
    rng = np.random.default_rng(7)
    b1 = rng.standard_normal(matrix.n_rows)
    b32 = rng.standard_normal((matrix.n_rows, 32))
    out = [a for block in blocks for a in block]
    out += [np.array(factor.perturbed_pivots),
            solver.solve(b1), solver.solve(b32)]
    solver.rhs_pad = 1
    return out + [solver.solve(b1)]


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("label, family, seed",
                         CASES + [(name, name, 0) for name in NAMED])
def test_same_bits_whatever_is_grouped(monkeypatch, label, family, seed,
                                       workers):
    matrix, kind = _matrix(family, seed)
    reference = _outputs(matrix, kind, workers)
    for limit in (0, ALL):
        monkeypatch.setattr(engine, "GROUP_FRONT_MAX", limit)
        got = _outputs(matrix, kind, workers)
        assert len(got) == len(reference)
        assert all(np.array_equal(a, b) for a, b in zip(reference, got)), \
            (label, limit)


def test_children_in_other_tasks_share_one_arena(monkeypatch):
    """A grouped parent whose subtree also holds a larger supernode is a
    task of its own; its children then run in other tasks, possibly at
    once, and whichever asks first allocates the parent's arena.  Fifty
    factorizations on four threads must all be bit-identical to one
    thread (a second allocation would lose a child's update block)."""
    monkeypatch.setattr(engine, "GROUP_FRONT_MAX", 48)
    matrix, kind = _matrix("circuit2000")
    solver = SparseSolver(matrix, kind=kind, workers=1, use_cache=False)
    ctx = numeric_context(solver.symbolic, solver._matrix)
    task_of = np.repeat(np.arange(ctx.n_tasks), np.diff(ctx.task_bounds))
    assert any(len(set(task_of[kids])) > 1
               for kids, size in zip(ctx.kids, ctx.arena_len) if size)
    reference = solver.factor.buffer.copy()
    solver.workers = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            solver.refactorize(matrix)
            assert np.array_equal(solver.factor.buffer, reference)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind", ["cholesky", "lu"])
def test_two_jobs_share_one_context_on_two_threads(kind):
    """Two solvers on one cached analysis (so one numeric context) and
    different values refactorize on two threads at once, 20 times each;
    the compiled tasks run without the GIL, so the jobs overlap.  Every
    factor and solution must equal its serial bits: a job's state is its
    own, the shared context is only read."""
    matrix, _ = _matrix(STRADDLING[kind])
    scaled = CSCMatrix(matrix.n_rows, matrix.n_cols, matrix.indptr,
                       matrix.indices, matrix.data * 1.5)
    solvers = [SparseSolver(a, kind=kind) for a in (matrix, scaled)]
    assert solvers[0].symbolic is solvers[1].symbolic
    b = np.random.default_rng(2).standard_normal((matrix.n_rows, 4))
    serial = [(s.factor.buffer.copy(), s.solve(b)) for s in solvers]
    mismatches = []

    def run(index, values):
        solver = solvers[index]
        for _ in range(20):
            solver.refactorize(values)
            if not (np.array_equal(solver.factor.buffer, serial[index][0])
                    and np.array_equal(solver.solve(b), serial[index][1])):
                mismatches.append(index)

    threads = [threading.Thread(target=run, args=(i, a))
               for i, a in enumerate((matrix, scaled))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@pytest.mark.parametrize("kind", ["cholesky", "lu"])
def test_thresholds_change_the_grouping(monkeypatch, kind):
    """The bit-identity above compares genuinely different runs: the
    default groups some supernodes, 0 none (no arena, one task per
    supernode), a huge threshold all of them (one task per tree)."""
    matrix, _ = _matrix(STRADDLING[kind])
    seen = {}
    default = engine.GROUP_FRONT_MAX
    for limit in (0, default, ALL):
        monkeypatch.setattr(engine, "GROUP_FRONT_MAX", limit)
        ctx = numeric_context(SparseSolver(matrix, kind=kind,
                                           use_cache=False).symbolic,
                              matrix if kind == "cholesky"
                              else apply_static_pivoting(matrix)[0])
        cached = sum(m is not None for m in ctx.ea_maps)
        seen[limit] = (ctx.n_tasks, sum(ctx.arena_len), cached)
    n_sn = len(ctx.layout)
    roots = int((ctx.sn_parent < 0).sum())
    parents = sum(bool(kids) for kids in ctx.kids)
    assert seen[0] == (n_sn, 0, 0)
    assert seen[ALL][0] == roots and seen[ALL][2] == parents
    tasks, _, cached = seen[default]
    assert roots < tasks < n_sn and 0 < cached < parents


@pytest.mark.parametrize("kind", ["cholesky", "lu"])
def test_tasks_are_maximal_grouped_subtrees(kind):
    matrix, _ = _matrix(STRADDLING[kind])
    solver = SparseSolver(matrix, kind=kind, use_cache=False)
    ctx = numeric_context(solver.symbolic, solver._matrix)
    sizes = [sn.front_size for sn in ctx.tree.supernodes]
    parent = ctx.sn_parent.tolist()
    n = len(parent)
    # Per-node walk (children precede parents): is every supernode of the
    # subtree grouped, and where does the subtree start?
    small = [size <= engine.GROUP_FRONT_MAX for size in sizes]
    first = list(range(n))
    for i, p in enumerate(parent):
        if p >= 0:
            small[p] = small[p] and small[i]
            first[p] = min(first[p], first[i])
    expected = [(i, i + 1) if not small[i] else (first[i], i + 1)
                for i, p in enumerate(parent)
                if not small[i] or p < 0 or not small[p]]
    bounds = ctx.task_bounds.tolist()
    assert sorted(expected) == list(zip(bounds[:-1], bounds[1:]))
    assert ctx.n_tasks < n
    task_of = np.repeat(np.arange(ctx.n_tasks), np.diff(bounds))
    for t, hi in enumerate(bounds[1:]):
        p = parent[hi - 1]
        assert ctx.task_parent[t] == (task_of[p] if p >= 0 else -1)


def test_stored_factor_pins_only_the_factor_buffer():
    """The factor keeps ``P`` | ``R`` of every supernode in one buffer of
    exactly their total length: the update arenas are not part of it."""
    for matrix, kind in map(_matrix, STRADDLING.values()):
        solver = SparseSolver(matrix, kind=kind, use_cache=False)
        assert any(numeric_context(solver.symbolic,
                                   solver._matrix).arena_len)
        factor = solver.factor
        blocks = [block[1:] for block in factor.fronts]
        total = sum(a.size for block in blocks for a in block)
        bases = {id(a.base) for block in blocks for a in block}
        assert len(bases) == 1
        assert all(a.base.size == total for block in blocks for a in block)


@pytest.mark.parametrize("kind", ["cholesky", "lu"])
def test_context_maps_match_the_tagged_coo_build(kind):
    """``perm_data`` and the static-pivoting data map, now one sort each,
    equal the COO -> CSC conversion of arange tags they replaced."""
    matrix = (grid_laplacian_3d(6, 6, 6, seed=2) if kind == "cholesky"
              else circuit_like(800, seed=5))
    work = matrix
    if kind == "lu":
        work, row_perm = apply_static_pivoting(matrix)
        coo = matrix.to_coo()
        inverse = np.argsort(row_perm)
        tagged = _arange_csc(matrix.n_rows, matrix.n_cols,
                             inverse[coo.rows], coo.cols)
        assert np.array_equal(row_permutation_data_map(matrix, row_perm),
                              tagged.data.astype(np.int64))
    solver = SparseSolver(work, kind=kind, use_cache=False)
    ctx = numeric_context(solver.symbolic, work)
    inverse = np.argsort(solver.symbolic.perm)
    coo = work.to_coo()
    tagged = _arange_csc(work.n_rows, work.n_cols, inverse[coo.rows],
                         inverse[coo.cols])
    assert np.array_equal(ctx.perm_data, tagged.data.astype(np.int64))

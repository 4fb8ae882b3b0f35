"""The LAPACK/BLAS-routed dense kernels against their references.

Every kernel of :mod:`repro.numeric.dense` is held against the
``block_size=1`` per-pivot path (plain NumPy, no LAPACK call) and against
``numpy.linalg``; the error contract (which pivot raises, with which
message) must be the same on both paths; the triangular solves must run
in the caller's memory; and a solution's bits must not depend on which
column of a padded panel carried it.
"""

import numpy as np
import pytest

from repro.numeric import SparseSolver
from repro.numeric import compiled, dense
from repro.numeric.dense import (
    lu_front,
    partial_cholesky,
    partial_lu,
    solve_lower_dense,
    solve_upper_dense,
)
from repro.numeric.supernodal_solve import solve_panel
from repro.sparse import circuit_like, grid_laplacian_3d
from repro.sparse.csc import CSCMatrix
from repro.verify.generators import build_case, family_names

from .conftest import csc_solve

SIZES = [1, 2, 31, 32, 33, 48, 49, 130]


def _pivot_counts(size):
    return sorted({1, max(1, size // 2), size})


CASES = [(size, p) for size in SIZES for p in _pivot_counts(size)]


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _layouts(a):
    """The same front as a contiguous array, as an interior block of a
    larger array (the layout partial kernels see on sub-fronts), and as a
    view whose element stride is not the item size."""
    n = a.shape[0]
    inner = np.full((n + 7, n + 9), 7.25)
    inner[3:3 + n, 5:5 + n] = a
    stepped = np.full((2 * n, 2 * n), 7.25)
    stepped[::2, ::2] = a
    return [("contiguous", a.copy(), None),
            ("interior", inner[3:3 + n, 5:5 + n], inner),
            ("stepped", stepped[::2, ::2], stepped)]


def _untouched(holder, view):
    """Cells of ``holder`` outside ``view`` still hold the fill value
    (call last: overwrites ``view``)."""
    view[...] = 7.25
    return bool(np.all(holder == 7.25))


class TestPartialCholesky:
    @pytest.mark.parametrize("size,p", CASES)
    def test_default_vs_reference_vs_numpy(self, rng, size, p):
        a = _spd(rng, size)
        chol = np.linalg.cholesky(a)
        schur = a[p:, p:] - a[p:, :p] @ np.linalg.solve(a[:p, :p],
                                                        a[:p, p:])
        reference = partial_cholesky(a.copy(), p, block=1)
        for name, front, holder in _layouts(a):
            out = partial_cholesky(front, p)
            assert out is front, name
            for got in (front, reference):
                assert np.allclose(np.tril(got)[:, :p], chol[:, :p],
                                   rtol=1e-11, atol=1e-11), name
                assert np.allclose(np.tril(got[p:, p:]), np.tril(schur),
                                   rtol=1e-10, atol=1e-9), name
            if holder is not None:
                assert _untouched(holder, front), name

    @pytest.mark.parametrize("block", [2, 8, 48, 200])
    def test_block_sizes_agree_with_reference(self, rng, block):
        a = _spd(rng, 70)
        reference = partial_cholesky(a.copy(), 50, block=1)
        got = partial_cholesky(a.copy(), 50, block=block)
        assert np.allclose(np.tril(got), np.tril(reference),
                           rtol=1e-12, atol=1e-12)


class TestPartialLU:
    @pytest.mark.parametrize("size,p", CASES)
    def test_default_vs_reference_vs_numpy(self, rng, size, p):
        a = _spd(rng, size) + rng.standard_normal((size, size))
        reference = partial_lu(a.copy(), p, block=1)
        for name, front, holder in _layouts(a):
            out = partial_lu(front, p)
            assert out is front, name
            assert np.allclose(front, reference, rtol=1e-11,
                               atol=1e-11), name
            # [L11 0; L21 I] @ [U11 U12; 0 S] reconstructs the front.
            lower = np.eye(size)
            lower[:, :p] = np.tril(front[:, :p], -1) + np.eye(size)[:, :p]
            upper = np.zeros((size, size))
            upper[:p] = np.triu(front[:p])
            upper[p:, p:] = front[p:, p:]
            assert np.allclose(lower @ upper, a, rtol=1e-10,
                               atol=1e-9), name
            if holder is not None:
                assert _untouched(holder, front), name

    @pytest.mark.parametrize("block", [1, 8, 48])
    def test_perturb_bumps_small_pivots_identically(self, rng, block):
        a = _spd(rng, 20)
        a[5] = a[:, 5] = 0.0            # decoupled exact-zero pivot
        a[13] = a[:, 13] = 0.0          # ... and a tiny negative one
        a[13, 13] = -1e-30
        got = partial_lu(a.copy(), 20, perturb=1e-6, block=block)
        reference = partial_lu(a.copy(), 20, perturb=1e-6, block=1)
        assert got[5, 5] == 1e-6 and got[13, 13] == -1e-6
        assert np.allclose(got, reference, rtol=1e-11, atol=1e-11)


class TestTriangularSolves:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("k", [None, 1, 32])
    @pytest.mark.parametrize("unit", [False, True])
    def test_against_numpy(self, rng, size, k, unit):
        full = rng.standard_normal((size, size)) / size + 2 * np.eye(size)
        b = rng.standard_normal(size if k is None else (size, k))
        for lower, solve in ((True, solve_lower_dense),
                             (False, solve_upper_dense)):
            exact = np.tril(full) if lower else np.triu(full)
            if unit:
                np.fill_diagonal(exact, 1.0)
            expected = np.linalg.solve(exact, b)
            # Whatever the solve must not read is poisoned.
            poisoned = np.where(exact != 0, exact, np.nan)
            if unit:
                np.fill_diagonal(poisoned, np.nan)
            for name, tri, _ in _layouts(poisoned):
                for operand in (tri, np.asfortranarray(tri)):
                    x = solve(operand, b, unit=unit)
                    assert x.shape == b.shape
                    assert np.allclose(x, expected, rtol=1e-10,
                                       atol=1e-12), (name, lower)

    def test_strided_right_hand_side_is_solved_in_place(self, rng):
        tri = np.tril(rng.standard_normal((9, 9))) + 9 * np.eye(9)
        holder = rng.standard_normal((9, 40))
        b = holder[:, 3:20].copy()
        before = holder.copy()
        dense._solve_lower_inplace(tri, holder[:, 3:20], False)
        assert np.allclose(tri @ holder[:, 3:20], b, atol=1e-12)
        assert np.array_equal(holder[:, :3], before[:, :3])
        assert np.array_equal(holder[:, 20:], before[:, 20:])

    def test_cholesky_strict_upper_triangle_is_never_read(self):
        matrix = grid_laplacian_3d(7, seed=3)
        solver = SparseSolver(matrix, use_cache=False)
        rng = np.random.default_rng(6)
        rhs = [rng.standard_normal(matrix.n_rows),
               rng.standard_normal((matrix.n_rows, 32))]

        def outputs():
            csc, _ = solver.factor.to_csc()
            return [solver.solve(b) for b in rhs] + [
                csc.indptr, csc.indices, csc.data]

        before = outputs()
        for _, block, _ in solver.factor.fronts:
            k = block.shape[1]
            block[:k][np.triu_indices(k, 1)] = np.nan
        assert all(np.array_equal(a, b) for a, b in zip(outputs(), before))


class _BlasSpy:
    """Wraps an f2py routine; records, per call, whether each array
    (positional or keyword) went in Fortran-contiguous (no private copy)
    and whether the result is the very object passed in (solved in the
    caller's memory)."""

    def __init__(self, fn, in_place_arg):
        self.fn, self.in_place_arg = fn, in_place_arg
        self.calls = []

    def __call__(self, *args, **kwargs):
        out = self.fn(*args, **kwargs)
        arrays = [a for a in (*args, *kwargs.values())
                  if isinstance(a, np.ndarray)]
        target = arrays[self.in_place_arg]
        result = out[0] if isinstance(out, tuple) else out
        self.calls.append({
            "contiguous": [a.flags.f_contiguous for a in arrays],
            "in_place": result is target
            and np.shares_memory(result, target),
        })
        return out


class _CompiledSpy:
    """Swaps the compiled core's pointers to the named BLAS/LAPACK
    routines for recording wrappers that forward every call: per call the
    routine's name, its flags and dimensions, and the address of every
    array operand (``a``, ``b``, ``c``, ``x``, ``y``), in call order."""

    PARAMS = {
        "dgemm": "transa transb m n k alpha a lda b ldb beta c ldc",
        "dgemv": "trans m n alpha a lda x incx beta y incy",
        "dtrsm": "side uplo transa diag m n alpha a lda b ldb",
        "dsyrk": "uplo trans n k alpha a lda beta c ldc",
        "dpotrf": "uplo n a lda info",
        "dgetrf": "m n a lda ipiv info",
    }
    FLAGS = {"transa", "transb", "trans", "side", "uplo", "diag"}
    DIMS = {"m", "n", "k", "lda", "ldb", "ldc", "incx", "incy"}
    ARRAYS = {"a", "b", "c", "x", "y"}

    def __init__(self, *names):
        self.names, self.calls, self._saved = names, [], {}

    def __enter__(self):
        ffi, table = compiled.ffi, compiled.lib.repro_blas
        for name in self.names:
            real = self._saved[name] = getattr(table, name)
            params = self.PARAMS[name].split()

            def spy(*args, _name=name, _real=real, _params=params):
                call = {"routine": _name}
                for param, arg in zip(_params, args):
                    if param in self.FLAGS:
                        call[param] = ffi.string(arg, 1).decode()
                    elif param in self.DIMS:
                        call[param] = arg[0]
                    elif param in self.ARRAYS:
                        call[param] = int(ffi.cast("uintptr_t", arg))
                self.calls.append(call)
                _real(*args)

            self._saved[name, "callback"] = ffi.callback(
                f"repro_{name}_t", spy)
            setattr(table, name, self._saved[name, "callback"])
        return self.calls

    def __exit__(self, *exc):
        for name in self.names:
            setattr(compiled.lib.repro_blas, name, self._saved[name])


def _offset(address, array):
    """Element offset of ``address`` in ``array``'s memory, or None."""
    offset, rest = divmod(address - array.ctypes.data, array.itemsize)
    return offset if rest == 0 and 0 <= offset < array.size else None


class TestNoCopies:
    def test_solves_run_in_the_callers_panel(self, rng, monkeypatch):
        spy = _BlasSpy(dense.dtrsm, in_place_arg=1)
        monkeypatch.setattr(dense, "dtrsm", spy)
        tri = np.tril(rng.standard_normal((33, 33))) + 33 * np.eye(33)
        x = rng.standard_normal((33, 32))
        b = x.copy()
        dense._solve_lower_inplace(tri, x, False)
        dense._solve_upper_inplace(tri.T, x, False)
        assert np.allclose(tri @ (tri.T @ x), b, atol=1e-9)
        assert len(spy.calls) == 2
        assert all(c["in_place"] and all(c["contiguous"])
                   for c in spy.calls)

    @pytest.mark.parametrize("kind", ["cholesky", "lu"])
    def test_supernodal_solve_never_copies_the_panel(self, kind):
        """Two ``dtrsm`` per supernode, each solving a row band of the
        caller's panel in place against L11 / U11 read where the factor
        stores them."""
        matrix = (grid_laplacian_3d(6, seed=1) if kind == "cholesky"
                  else circuit_like(300, seed=2))
        solver = SparseSolver(matrix, kind=kind, use_cache=False)
        factor = solver.factor
        y = np.random.default_rng(0).standard_normal((matrix.n_rows, 32))
        with _CompiledSpy("dtrsm") as calls:
            solve_panel(factor, y)
        assert len(calls) == 2 * len(factor.fronts)
        assert all(_offset(c["b"], y) is not None and c["ldb"] == 32
                   for c in calls)
        assert all(_offset(c["a"], factor.buffer) is not None
                   for c in calls)

    def test_whole_front_panel_factors_in_place(self):
        """On every supernode no wider than ``block_size`` each LAPACK /
        BLAS call works in the memory of that supernode's P | R, whole
        rows at a time (leading dimension ``k`` or ``m``), or in its
        update block — except ``dgetrf``, which factors a ``k x k`` copy
        (kept only if it needed no pivoting)."""
        block = 48
        for kind, matrix in (("cholesky", grid_laplacian_3d(6, seed=1)),
                             ("lu", circuit_like(300, seed=2))):
            with _CompiledSpy("dpotrf", "dtrsm", "dsyrk", "dgemm",
                              "dgetrf") as calls:
                solver = SparseSolver(matrix, kind=kind, block_size=block,
                                      use_cache=False)
            buffer = solver.factor.buffer
            layout = solver.factor.ctx.layout
            checked, with_update, copies = 0, 0, 0
            for call in calls:
                offsets = {key: _offset(call[key], buffer)
                           for key in "abc" if key in call}
                inside = [off for off in offsets.values() if off is not None]
                if call["routine"] == "dgetrf":
                    assert not inside and call["lda"] == call["n"]
                    copies += 1
                    continue
                sn = {int(np.searchsorted(layout[:, 2], off, "right")) - 1
                      for off in inside}
                assert len(sn) == 1, call
                k, m, lo, _, hi, _, _ = layout[sn.pop()]
                assert all(lo <= off < hi for off in inside)
                if k > block:
                    continue
                checked += 1
                assert all(call[f"ld{key}"] in (k, m) for key in offsets)
                outside = [key for key, off in offsets.items() if off is None]
                if outside:
                    # The rank-k update into the front's own C.
                    assert outside == ["c"] and call["ldc"] == m
                    with_update += 1
            n_updates = int((layout[:, 1] > 0).sum())
            assert with_update == n_updates and checked > with_update, kind
            assert (copies > 0) == (kind == "lu")


def _decoupled_pivot(rng, size, position, value):
    """SPD front whose pivot ``position`` is decoupled from the rest, so
    its reduced pivot is exactly ``value`` and every earlier pivot is
    still positive."""
    a = _spd(rng, size)
    a[position] = 0.0
    a[:, position] = 0.0
    a[position, position] = value
    return a


class TestErrorContract:
    # block=8 on a 20-pivot front: panels [0,8) [8,16) [16,20).
    POSITIONS = [0, 3, 7, 8, 11, 15, 16, 19]

    @pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", POSITIONS)
    def test_bad_cholesky_pivot_raises_on_both_paths(self, rng, value,
                                                     position):
        a = _decoupled_pivot(rng, 24, position, value)
        messages = []
        for block in (1, 8, None):
            with pytest.raises(ValueError, match="non-SPD pivot") as info:
                partial_cholesky(a.copy(), 20, block=block)
            messages.append(str(info.value))
        assert messages[0].endswith(f"at front position {position}")
        assert messages[1] == messages[0] == messages[2]

    def test_first_bad_pivot_wins(self, rng):
        # A NaN pivot that dpotrf passes through, ahead of a negative one
        # it reports: the NaN is the first failure in elimination order.
        a = _decoupled_pivot(rng, 24, 9, np.nan)
        a[14] = a[:, 14] = 0.0
        a[14, 14] = -2.0
        for block in (1, 8, None):
            with pytest.raises(ValueError, match="front position 9$"):
                partial_cholesky(a.copy(), 20, block=block)

    def test_bad_pivot_beyond_n_pivots_is_not_an_error(self, rng):
        a = _decoupled_pivot(rng, 24, 22, -1.0)
        for block in (1, 8, None):
            partial_cholesky(a.copy(), 20, block=block)

    @pytest.mark.parametrize("position", POSITIONS)
    def test_zero_lu_pivot_raises_on_both_paths(self, rng, position):
        a = _decoupled_pivot(rng, 24, position, 0.0)
        for block in (1, 8, None):
            with pytest.raises(
                    ValueError,
                    match=f"zero pivot at front position {position}$"):
                partial_lu(a.copy(), 20, block=block)
            partial_lu(a.copy(), 20, perturb=1e-8, block=block)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", POSITIONS)
    def test_non_finite_lu_pivot_raises_on_both_paths(self, rng, value,
                                                      position):
        a = _decoupled_pivot(rng, 24, position, value)
        messages = []
        for block in (1, 8, None):
            with pytest.raises(ValueError, match="non-finite pivot") as info:
                partial_lu(a.copy(), 20, block=block)
            messages.append(str(info.value))
        assert messages[0] == (f"non-finite pivot {value} at front "
                               f"position {position}")
        assert messages[1] == messages[0] == messages[2]

    def test_first_bad_lu_pivot_wins(self, rng):
        # A NaN pivot ahead of an exact zero: the NaN is reported.
        a = _decoupled_pivot(rng, 24, 9, np.nan)
        a[14] = a[:, 14] = 0.0
        for block in (1, 8, None):
            with pytest.raises(ValueError, match="front position 9$"):
                partial_lu(a.copy(), 20, block=block)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_lu_solver_rejects_a_non_finite_entry(self, value):
        # These used to factor without an error: the NaN into an all-NaN
        # solution, +Inf with 599 of the 600 pivots bumped.
        matrix = circuit_like(600, hub_fraction=0.02, aspect=12, seed=1)
        data = matrix.data.copy()
        data[5] = value
        bad = CSCMatrix(matrix.n_rows, matrix.n_cols, matrix.indptr,
                        matrix.indices, data)
        for block in (1, None):
            with pytest.raises(ValueError, match="non-finite pivot"):
                SparseSolver(bad, kind="lu", block_size=block,
                             use_cache=False)
        solver = SparseSolver(matrix, kind="lu", use_cache=False)
        with pytest.raises(ValueError, match="non-finite pivot"):
            solver.refactorize(bad)

    @pytest.mark.parametrize("family", family_names())
    def test_perturbed_pivot_count_matches_reference(self, family):
        for seed in range(3):
            matrix = build_case(family, seed).matrix
            try:
                reference = SparseSolver(matrix, kind="lu", block_size=1,
                                         use_cache=False)
            except ValueError:
                with pytest.raises(ValueError):
                    SparseSolver(matrix, kind="lu", use_cache=False)
                continue
            default = SparseSolver(matrix, kind="lu", use_cache=False)
            assert (default.factor.perturbed_pivots
                    == reference.factor.perturbed_pivots)


def _split_front(front, k):
    """(P, R, C) copies of a square front with ``k`` pivots."""
    return (np.array(front[:, :k]), np.array(front[:k, k:]),
            np.array(front[k:, k:]))


class TestPivotBlockLU:
    """``dgetrf`` is kept only when it is the unpivoted, unbumped LU;
    every other pivot block is factored by the per-pivot loop, so values,
    errors and the bump count match ``block_size=1``."""

    @pytest.mark.parametrize("pivots, perturb, bumped", [
        pytest.param([[0.1, 1, 0], [5, 1, 0], [0, 1, 4]], 1e-8, 0,
                     id="row-swap"),
        pytest.param([[1, 1, 0], [1, 1 + 1e-13, 0], [0, 0, 2]], 1e-8, 1,
                     id="small-reduced-pivot"),
    ])
    def test_rejected_dgetrf_matches_reference(self, rng, pivots, perturb,
                                               bumped):
        front = rng.standard_normal((7, 7))
        front[:3, :3] = pivots
        got, reference = _split_front(front, 3), _split_front(front, 3)
        with _CompiledSpy("dgetrf") as calls:
            assert lu_front(*got, perturb=perturb) == bumped
            assert len(calls) == 1
            assert lu_front(*reference, perturb=perturb, block=1) == bumped
            assert len(calls) == 1
        for a, b in zip(got, reference):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_exact_zero_pivot_raises_like_reference(self, rng):
        front = rng.standard_normal((7, 7))
        front[:3, :3] = [[1, 1, 0], [1, 1, 0], [0, 0, 2]]
        for block in (None, 2, 1):
            with pytest.raises(ValueError,
                               match="^zero pivot at front position 1$"):
                lu_front(*_split_front(front, 3), perturb=0.0, block=block)

    def test_pivot_bumped_after_the_update_is_counted(self):
        # The assembled diagonal is 1 + 1e-13; only the reduced pivot
        # (1e-13) is below the threshold and bumped.
        matrix = CSCMatrix.from_dense(np.array(
            [[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 1.0], [0.0, 1.0, 2.0]]))
        for block in (None, 1):
            solver = SparseSolver(matrix, kind="lu", ordering="natural",
                                  block_size=block, use_cache=False)
            assert solver.factor.perturbed_pivots == 1


class TestPaddedColumnPosition:
    """What the coalescing server relies on: at a fixed ``rhs_pad`` width
    a solution's bits depend on its right-hand side only — not on which
    column carried it, nor on what rode in the other columns."""

    @pytest.mark.parametrize("kind", ["cholesky", "lu"])
    def test_same_bits_in_any_column(self, kind):
        matrix = (grid_laplacian_3d(7, seed=3) if kind == "cholesky"
                  else circuit_like(400, seed=4))
        solver = SparseSolver(matrix, kind=kind, rhs_pad=32,
                              use_cache=False)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(matrix.n_rows)
        alone = solver.solve(b)
        assert solver.residual_norm(matrix, alone, b) < 1e-10
        for j in (1, 7, 31):
            panel = rng.standard_normal((matrix.n_rows, 32))
            panel[:, j] = b
            assert np.array_equal(solver.solve(panel)[:, j], alone), j


class TestFailedRefactorizeIsAtomic:
    """A rejected ``refactorize`` leaves matrix, factor and CSC mirrors
    exactly as they were; ``solve`` keeps answering for the old values."""

    @pytest.mark.parametrize("kind, workers", [
        pytest.param("cholesky", 1, id="cholesky"),
        pytest.param("lu", 1, id="lu"),
        pytest.param("cholesky", 2, id="cholesky-workers2"),
        pytest.param("lu", 2, id="lu-workers2"),
    ])
    def test_solver_state_survives(self, kind, workers):
        matrix = (grid_laplacian_3d(5, seed=4) if kind == "cholesky"
                  else circuit_like(100, seed=7))
        solver = SparseSolver(matrix, kind=kind, workers=workers,
                              use_cache=False)
        b = np.cos(np.arange(matrix.n_rows, dtype=np.float64))
        before = solver.solve(b)
        before_csc = csc_solve(solver, b)
        held = (solver._matrix, solver._factor)
        # -A is not SPD; an all-zero matrix has no LU pivot to bump.
        bad = CSCMatrix(matrix.n_rows, matrix.n_cols, matrix.indptr,
                        matrix.indices,
                        -matrix.data if kind == "cholesky"
                        else np.zeros_like(matrix.data))
        with pytest.raises(ValueError, match="pivot"):
            solver.refactorize(bad)
        now = (solver._matrix, solver._factor)
        assert all(a is b_ for a, b_ in zip(held, now))
        assert np.array_equal(solver.solve(b), before)
        assert np.array_equal(csc_solve(solver, b), before_csc)
        # ... and the solver still refactorizes fine afterwards.
        solver.refactorize(matrix)
        assert np.array_equal(solver.solve(b), before)

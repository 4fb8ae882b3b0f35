"""Static pivoting against the frozen per-column implementation.

``repro.ordering.static_pivoting`` orders every column's rows with one
``lexsort`` and augments with an explicit stack; the row permutation must
be the one the old per-column greedy pass with recursive Kuhn
augmentation (``golden_oracles.static_pivoting``) computed.
"""

import sys
import threading

import numpy as np
import pytest

from repro.ordering.pivoting import static_pivoting
from repro.sparse import CSCMatrix, circuit_like
from repro.sparse.coo import COOMatrix
from repro.verify.generators import build_case, family_names

from . import golden_oracles as golden

SEEDS = range(30)

#: The ladder's LU matrices at full size (same generators, same seed).
LADDER_LU = {
    "circuit_lu": lambda: circuit_like(12000, hub_fraction=0.02, aspect=12,
                                       seed=2023),
    "tenant_lu": lambda: circuit_like(2000, hub_fraction=0.05, aspect=16,
                                      seed=2023),
    "warmup_circuit_lu": lambda: circuit_like(600, hub_fraction=0.02,
                                              aspect=12, seed=2023),
}


def outcome(pivot, matrix):
    """The row permutation, or the error text for a singular matrix."""
    try:
        return pivot(matrix)
    except ValueError as err:
        return str(err)


def greedy_leaves_columns(matrix):
    """True when the frozen greedy pass alone matches fewer than n
    columns, i.e. the case exercises augmentation."""
    best = [np.abs(matrix.col_vals(j)).max() if matrix.col_nnz(j) else 0.0
            for j in range(matrix.n_cols)]
    taken = set()
    matched = 0
    for j in np.argsort(-np.array(best)):
        rows = matrix.col_rows(j)
        for k in np.argsort(-np.abs(matrix.col_vals(j))):
            if int(rows[k]) not in taken:
                taken.add(int(rows[k]))
                matched += 1
                break
    return matched < matrix.n_cols


def lu_cases():
    for family in family_names():
        for seed in SEEDS:
            case = build_case(family, seed)
            if case.kind == "lu":
                yield family, seed, case.matrix


def test_every_lu_fuzz_case_matches_frozen_pivoting():
    augmented = checked = 0
    for family, seed, matrix in lu_cases():
        ours = outcome(static_pivoting, matrix)
        theirs = outcome(golden.static_pivoting, matrix)
        assert type(ours) is type(theirs), (family, seed)
        if isinstance(ours, str):
            assert ours == theirs, (family, seed)
        else:
            assert ours.dtype == np.int64
            assert np.array_equal(ours, theirs), (family, seed)
        augmented += greedy_leaves_columns(matrix)
        checked += 1
    # 4 LU families x 30 seeds when this was written, 18 of them needing
    # augmentation; families are only ever appended.
    assert checked >= 120 and augmented >= 18


@pytest.mark.parametrize("name", sorted(LADDER_LU))
def test_ladder_lu_matrices_match_frozen_pivoting(name):
    matrix = LADDER_LU[name]()
    assert np.array_equal(static_pivoting(matrix),
                          golden.static_pivoting(matrix))


def test_random_augmentation_heavy_matrices_match_frozen_pivoting():
    """A perfect matching hidden under tiny values, random larger entries
    around it: greedy misleads, and the augmenting searches (several per
    matrix, competing for rows) must find the oracle's paths."""
    rng = np.random.default_rng(2028)
    augmented = 0
    for _ in range(150):
        n = int(rng.integers(4, 50))
        hidden = rng.permutation(n)
        k = int(rng.integers(n, 4 * n))
        rows = np.concatenate((hidden, rng.integers(0, n, k)))
        cols = np.concatenate((np.arange(n), rng.integers(0, n, k)))
        vals = np.concatenate((1e-3 * rng.random(n), 0.5 + rng.random(k)))
        matrix = CSCMatrix.from_coo(COOMatrix(n, n, rows, cols, vals))
        assert np.array_equal(static_pivoting(matrix),
                              golden.static_pivoting(matrix))
        augmented += greedy_leaves_columns(matrix)
    assert augmented >= 75


def long_chain(n):
    """Greedy gives column j >= 1 row j - 1 (its large entry) and leaves
    column 0 (only row 0, the smallest) unmatched: the one augmenting
    path runs through every column to the free row n - 1."""
    j = np.arange(1, n)
    rows = np.concatenate(([0], j - 1, j))
    cols = np.concatenate(([0], j, j))
    vals = np.concatenate(([0.5], np.full(n - 1, 10.0), np.ones(n - 1)))
    return CSCMatrix.from_coo(COOMatrix(n, n, rows, cols, vals))


def test_long_augmenting_chain_leaves_the_recursion_limit_alone(
        monkeypatch):
    n = 4000   # deeper than the default recursion limit
    matrix = long_chain(n)
    expected = golden.static_pivoting(matrix)
    assert np.array_equal(expected, np.arange(n))

    limit = sys.getrecursionlimit()
    assert limit < n
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", calls.append)
    workers = 4   # more threads than cores, switching often
    results = [None] * workers
    errors = []
    barrier = threading.Barrier(workers)

    def pivot(slot):
        try:
            barrier.wait(timeout=60)
            results[slot] = static_pivoting(matrix)
        except Exception as err:  # pragma: no cover - reported below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=pivot, args=(s,))
                   for s in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert calls == [] and sys.getrecursionlimit() == limit
    for result in results:
        assert np.array_equal(result, expected)


def test_structurally_singular_after_augmentation():
    # Columns 0 and 1 both hold only row 0: no perfect matching.
    matrix = CSCMatrix.from_coo(COOMatrix(
        3, 3, [0, 0, 1, 2], [0, 1, 2, 2], [1.0, 2.0, 1.0, 1.0]))
    for pivot in (static_pivoting, golden.static_pivoting):
        with pytest.raises(ValueError, match="structurally singular"):
            pivot(matrix)


def test_magnitude_tie_in_a_long_column_goes_to_the_lowest_row():
    """Column 0 holds 20 entries of equal magnitude (mixed signs) at rows
    4..23, visited first: the documented rule gives it row 4.  Columns
    4..23 hold their diagonal and a smaller entry in row 0, so column 4
    falls back to row 0 and every other column keeps its diagonal; no
    augmentation is involved, so the greedy tie alone decides."""
    n = 24
    tie_rows = np.arange(4, n)
    rows = np.concatenate((tie_rows, np.arange(1, n), np.zeros(20, int)))
    cols = np.concatenate((np.zeros(20, int), np.arange(1, n), tie_rows))
    vals = np.concatenate((np.where(tie_rows % 2, -5.0, 5.0),
                           np.ones(n - 1), np.full(20, 0.5)))
    matrix = CSCMatrix.from_coo(COOMatrix(n, n, rows, cols, vals))
    assert matrix.col_nnz(0) > 16
    expected = np.arange(n)
    expected[0], expected[4] = 4, 0
    assert np.array_equal(static_pivoting(matrix), expected)
    assert not greedy_leaves_columns(matrix)

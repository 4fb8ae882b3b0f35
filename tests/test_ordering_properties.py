"""Property-based tests for the ordering registry and local refinement.

Every registered ordering — built-in or plugin — must return a valid
permutation (bijective, int64, correct length) on everything the fuzz
suite can produce, including the degenerate shapes heuristics tend to
trip on (n=1, diagonal-only, disconnected graphs, dense rows).  The
search-based ``local_refine`` additionally must never score worse than
its seed ordering on the fill objective and must be bit-reproducible
for a fixed seed/budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ordering import (
    available_orderings,
    fill_reducing_ordering,
    get_ordering,
    local_refine,
    register_ordering,
    score_ordering,
    unregister_ordering,
)
from repro.sparse.csc import CSCMatrix
from repro.verify.generators import build_case, family_names


def assert_valid_permutation(perm, n):
    perm = np.asarray(perm)
    assert perm.shape == (n,), f"shape {perm.shape} != ({n},)"
    assert perm.dtype == np.int64, f"dtype {perm.dtype} != int64"
    assert np.array_equal(np.sort(perm), np.arange(n)), "not a bijection"


def fill_of(matrix, perm):
    return score_ordering(matrix, perm, kind="cholesky"
                          if matrix.is_structurally_symmetric()
                          else "lu").fill


# -- edge-case matrices --------------------------------------------------------


def _diag_only(n):
    return CSCMatrix.from_dense(np.diag(np.arange(1.0, n + 1.0)))


def _disconnected(n_components=3, size=4):
    """Block-diagonal of small dense SPD blocks plus one isolated vertex."""
    n = n_components * size + 1
    dense = np.zeros((n, n))
    rng = np.random.default_rng(0)
    for c in range(n_components):
        lo = c * size
        block = rng.uniform(-1.0, 1.0, (size, size))
        dense[lo:lo + size, lo:lo + size] = block @ block.T + size * np.eye(size)
    dense[-1, -1] = 1.0
    return CSCMatrix.from_dense(dense)


def _dense_row(n=10):
    """Arrow matrix: one vertex adjacent to everything (the AMD dense-
    row-deferral path)."""
    dense = np.eye(n) * n
    dense[0, :] = dense[:, 0] = 1.0
    dense[0, 0] = n
    return CSCMatrix.from_dense(dense)


EDGE_CASES = {
    "n1": CSCMatrix.from_dense(np.array([[2.0]])),
    "diagonal_only": _diag_only(6),
    "disconnected": _disconnected(),
    "dense_row": _dense_row(),
}


@pytest.mark.parametrize("method", available_orderings())
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_yield_valid_permutations(method, case):
    matrix = EDGE_CASES[case]
    perm = fill_reducing_ordering(matrix, method)
    assert_valid_permutation(perm, matrix.n_rows)


@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(family_names()), seed=st.integers(0, 100))
def test_every_registered_ordering_is_a_valid_permutation(family, seed):
    case = build_case(family, seed, max_n=20)
    for method in available_orderings():
        perm = fill_reducing_ordering(case.matrix, method)
        assert_valid_permutation(perm, case.matrix.n_rows)


# -- registry behaviour --------------------------------------------------------


def test_unknown_ordering_error_lists_registry():
    matrix = EDGE_CASES["dense_row"]
    with pytest.raises(ValueError) as exc:
        fill_reducing_ordering(matrix, "metis")
    for name in available_orderings():
        assert name in str(exc.value)


def test_plugin_registration_round_trip():
    @register_ordering("reversed_natural", description="test plugin")
    def reversed_natural(matrix):
        return np.arange(matrix.n_rows - 1, -1, -1, dtype=np.int64)

    try:
        assert "reversed_natural" in available_orderings()
        matrix = _diag_only(5)
        perm = fill_reducing_ordering(matrix, "reversed_natural")
        assert np.array_equal(perm, [4, 3, 2, 1, 0])
        # The new name shows up in unknown-method errors (no drift).
        with pytest.raises(ValueError, match="reversed_natural"):
            fill_reducing_ordering(matrix, "nope")
        # Duplicate registration is rejected without overwrite=True.
        with pytest.raises(ValueError, match="already registered"):
            register_ordering("reversed_natural")(reversed_natural)
    finally:
        unregister_ordering("reversed_natural")
    assert "reversed_natural" not in available_orderings()


def test_builtins_cannot_be_unregistered():
    with pytest.raises(ValueError, match="built-in"):
        unregister_ordering("amd")


def test_auto_is_a_reserved_name():
    with pytest.raises(ValueError, match="reserved"):
        register_ordering("auto")(lambda m: np.arange(m.n_rows))


def test_capability_metadata():
    assert get_ordering("amd").builtin
    entry = get_ordering("local_refine")
    assert entry.seeded and entry.search
    assert entry.default_params["seed_method"] == "amd"


# -- local_refine guarantees ---------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 50))
def test_local_refine_never_worse_than_seed(seed):
    case = build_case("spd_mesh", seed, max_n=30)
    amd_fill = fill_of(case.matrix, fill_reducing_ordering(case.matrix, "amd"))
    refined = local_refine(case.matrix, seed=seed, budget=12)
    assert_valid_permutation(refined, case.matrix.n_rows)
    assert fill_of(case.matrix, refined) <= amd_fill


@settings(max_examples=10, deadline=None)
@given(family=st.sampled_from(["spd_random", "spd_mesh", "lu_unsym_dd"]),
       seed=st.integers(0, 50))
def test_local_refine_is_bit_reproducible(family, seed):
    case = build_case(family, seed, max_n=20)
    a = local_refine(case.matrix, seed=7, budget=10)
    b = local_refine(case.matrix, seed=7, budget=10)
    assert np.array_equal(a, b)


def test_local_refine_zero_budget_returns_seed():
    matrix = build_case("spd_mesh", 3, max_n=30).matrix
    assert np.array_equal(
        local_refine(matrix, budget=0),
        fill_reducing_ordering(matrix, "amd"),
    )


def test_local_refine_rejects_bad_knobs():
    matrix = _diag_only(4)
    with pytest.raises(ValueError):
        local_refine(matrix, budget=-1)
    with pytest.raises(ValueError):
        local_refine(matrix, window=1)


def test_local_refine_beats_or_matches_amd_on_mesh_family():
    """Acceptance criterion: >= 80% of the fuzz-suite mesh family."""
    seeds = range(10)
    wins = 0
    improved = 0
    for seed in seeds:
        # max_n was 36 until PR 21: the array-based AMD is already at a
        # local optimum of these moves on every <= 36-vertex mesh (its
        # fill is <= the old AMD's *refined* fill on all ten seeds), so
        # the strict-improvement check below needs meshes with room left.
        matrix = build_case("spd_mesh", seed, max_n=100).matrix
        amd_fill = fill_of(matrix, fill_reducing_ordering(matrix, "amd"))
        refined_fill = fill_of(matrix, local_refine(matrix, seed=seed,
                                                    budget=40))
        if refined_fill <= amd_fill:
            wins += 1
        if refined_fill < amd_fill:
            improved += 1
    assert wins / len(list(seeds)) >= 0.8
    # Hill-climbing from the AMD seed should find at least one strict
    # improvement somewhere in the family, not just tie everywhere.
    assert improved >= 1


def test_local_refine_custom_seed_method():
    matrix = build_case("spd_mesh", 1, max_n=30).matrix
    rcm_fill = fill_of(matrix, fill_reducing_ordering(matrix, "rcm"))
    refined = local_refine(matrix, seed_method="rcm", seed=0, budget=20)
    assert fill_of(matrix, refined) <= rcm_fill


def test_mesh_family_is_deterministic_and_spd_shaped():
    a = build_case("spd_mesh", 5, max_n=30).matrix
    b = build_case("spd_mesh", 5, max_n=30).matrix
    assert np.array_equal(a.to_dense(), b.to_dense())
    assert a.is_structurally_symmetric()
    assert np.all(np.linalg.eigvalsh(a.to_dense()) > 0)

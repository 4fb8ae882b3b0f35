"""Cross-checks for the ordering quality harness.

The quality layer must agree with the symbolic analyzer it summarizes:
``OrderingScore.fill`` computed by :func:`score_ordering` for a method
must equal the ``factor_nnz`` that :func:`symbolic_factorize` reports
when told to use the same method.  The gauges it exports must land in
the process metrics registry and flow through into solve artifacts.
"""

import json

import numpy as np
import pytest

from repro.obs.metrics import global_registry
from repro.ordering import (
    OrderingScore,
    compare_orderings,
    export_quality_gauges,
    fill_reducing_ordering,
    register_ordering,
    score_ordering,
    unregister_ordering,
    validate_permutation,
)
from repro.numeric import SparseSolver
from repro.ordering.quality import QUALITY_PREFIX
from repro.sparse import grid_laplacian_2d, grid_laplacian_3d, random_spd
from repro.symbolic.analyze import symbolic_factorize
from repro.verify.generators import build_case

GOLDEN = {
    "grid7": lambda: grid_laplacian_2d(7, seed=3),
    "grid5x9": lambda: grid_laplacian_2d(5, 9, seed=1),
    "spd200": lambda: random_spd(200, density=0.03, seed=2),
    "mesh_fuzz": lambda: build_case("spd_mesh", 11, max_n=80).matrix,
}


@pytest.mark.parametrize("method", ["amd", "nd", "rcm", "natural"])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_score_fill_matches_symbolic_factor_nnz(method, name):
    matrix = GOLDEN[name]()
    perm = fill_reducing_ordering(matrix, method)
    score = score_ordering(matrix, perm, method=method)
    sym = symbolic_factorize(matrix, ordering=method)
    assert score.fill == sym.factor_nnz
    assert score.flops == sym.flops
    # symbolic_factorize attaches the same score to its result.
    assert sym.quality is not None
    assert sym.quality.fill == score.fill
    assert sym.quality.etree_height == score.etree_height


def test_score_fields_are_consistent():
    matrix = GOLDEN["grid7"]()
    score = score_ordering(matrix, fill_reducing_ordering(matrix, "amd"),
                           method="amd")
    assert isinstance(score, OrderingScore)
    assert score.n == matrix.n_rows
    assert score.fill >= matrix.n_rows          # at least the diagonal
    assert score.fill_ratio == pytest.approx(score.fill / matrix.nnz)
    assert 1 <= score.n_levels <= score.n
    assert score.etree_height == score.n_levels
    assert 1 <= score.max_level_width <= score.n
    assert 0.0 < score.level_occupancy <= 1.0
    # Round-trips through its dict form (artifact serialization).
    assert OrderingScore.from_dict(score.to_dict()) == score


def test_simulated_cycles_gauge():
    matrix = grid_laplacian_2d(5, seed=0)
    perm = fill_reducing_ordering(matrix, "amd")
    score = score_ordering(matrix, perm, method="amd", simulate=True)
    assert score.cycles is not None and score.cycles > 0
    assert f"{QUALITY_PREFIX}.cycles" in score.flat_metrics()


def test_validate_permutation_rejects_garbage():
    validate_permutation(np.arange(4, dtype=np.int64), 4)
    with pytest.raises(ValueError):
        validate_permutation(np.array([0, 1, 1, 3]), 4)        # repeat
    with pytest.raises(ValueError):
        validate_permutation(np.arange(3), 4)                  # short
    with pytest.raises(ValueError):
        validate_permutation(np.array([0.0, 1.0, 2.0]), 3)     # float
    matrix = GOLDEN["grid7"]()
    with pytest.raises(ValueError):
        score_ordering(matrix, np.zeros(matrix.n_rows, dtype=np.int64))


def test_out_of_range_entries_are_value_errors():
    # -1 used to pass: it indexed the last slot of the "seen" mask.
    for bad in ([0, 1, 2, 4], [0, 1, 2, -1], [3, 1, 2, -1]):
        with pytest.raises(ValueError, match="outside range"):
            validate_permutation(np.array(bad), 4)


@pytest.mark.parametrize("last", [0, -1], ids=["repeat", "minus_one"])
def test_explicit_perm_must_be_a_permutation(last):
    """It used to give a nonsense analysis (factor_nnz 227 or 198)."""
    matrix = grid_laplacian_3d(3, 3, 3)
    perm = np.arange(matrix.n_rows)
    perm[-1] = last
    with pytest.raises(ValueError, match="permutation"):
        symbolic_factorize(matrix, perm=perm)


def test_plugin_returning_a_non_permutation_is_named():
    """It used to reach SparseSolver and fail there with "matrix pattern
    does not match the symbolic analysis"."""
    register_ordering("all_zeros")(
        lambda m: np.zeros(m.n_rows, dtype=np.int64))
    try:
        with pytest.raises(ValueError, match="ordering 'all_zeros' returned "
                                             "an invalid permutation"):
            SparseSolver(GOLDEN["grid7"](), ordering="all_zeros",
                         use_cache=False)
    finally:
        unregister_ordering("all_zeros")


def test_gauges_land_in_global_registry():
    matrix = GOLDEN["grid5x9"]()
    score = score_ordering(matrix, fill_reducing_ordering(matrix, "rcm"),
                           method="rcm")
    export_quality_gauges(score)
    snapshot = global_registry().snapshot()
    for key, value in score.flat_metrics().items():
        assert snapshot[key] == value
    assert snapshot[f"{QUALITY_PREFIX}.fill"] == score.fill


def test_solver_refreshes_gauges_on_cache_hit():
    """Analysis-cache hits skip symbolic_factorize, so the solver must
    re-export the cached score — otherwise gauges describe whatever
    matrix was analyzed last, not this one."""
    from repro.numeric.solver import SparseSolver

    matrix = GOLDEN["grid7"]()
    SparseSolver(matrix, ordering="rcm")         # warms the analysis cache
    other_matrix = GOLDEN["spd200"]()
    other = score_ordering(other_matrix,
                           fill_reducing_ordering(other_matrix, "amd"))
    export_quality_gauges(other)                 # clobber the gauges
    solver = SparseSolver(matrix, ordering="rcm")  # guaranteed cache hit
    snapshot = global_registry().snapshot()
    assert snapshot[f"{QUALITY_PREFIX}.fill"] == solver.symbolic.quality.fill
    assert snapshot[f"{QUALITY_PREFIX}.fill"] != other.fill


def test_compare_orderings_covers_builtins():
    scores = compare_orderings(GOLDEN["grid7"](),
                               methods=["amd", "rcm", "natural"])
    assert sorted(scores) == ["amd", "natural", "rcm"]
    assert all(s.fill > 0 for s in scores.values())
    # On a shuffled mesh AMD should not lose to the natural order.
    assert scores["amd"].fill <= scores["natural"].fill


def test_solve_artifact_carries_quality(tmp_path, capsys):
    from repro.cli import main

    artifact = tmp_path / "run.json"
    assert main(["solve", "fuzz:spd_mesh@3", "--ordering", "rcm",
                 "--metrics", str(artifact)]) == 0
    payload = json.loads(artifact.read_text())
    quality = payload["attribution"]["ordering_quality"]
    assert quality["method"] == "rcm"
    assert quality["fill"] == payload["metrics"]["ordering.quality.fill"]
    for key in ("ordering.quality.fill", "ordering.quality.flops",
                "ordering.quality.etree_height",
                "ordering.quality.occupancy"):
        assert key in payload["metrics"]
    assert payload["config"]["ordering"] == "rcm"

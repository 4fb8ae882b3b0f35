"""Tests for the differential verification subsystem (repro.verify).

Covers the generator families, oracle tolerances, the differential
sweep, shrinking/replay, the campaign runner + metrics, the CLI, and —
the acceptance check for the whole subsystem — a mutation test: a
deliberately injected kernel bug must be caught, shrunk to a tiny
replayable case, and the repro must flip back to green once the bug is
removed.
"""

import numpy as np
import pytest

import repro.numeric.schedule as schedule_mod
from repro.cli import main
from repro.numeric import SparseSolver
from repro.numeric.dense import cholesky_front as real_cholesky_front
from repro.obs.metrics import global_registry
from repro.verify import (
    CaseResult,
    Mismatch,
    Repro,
    SweepAxes,
    VerifyConfig,
    backward_error,
    build_case,
    campaign_artifact,
    case_stream,
    check_against_oracle,
    condition_estimate,
    family_names,
    forward_tolerance,
    load_repro,
    replay_repro,
    run_case,
    run_verification,
    shrink_matrix,
)
from repro.verify.differential import equivalent_axes
from repro.verify.generators import (
    duplicate_entry_coo,
    ill_conditioned_spd,
    near_singular_spd,
    random_spd,
    structurally_singular,
)
from repro.verify.shrink import failure_predicate, principal_submatrix


# -- generators ----------------------------------------------------------------


class TestGenerators:
    def test_build_case_is_deterministic(self):
        for family in family_names():
            a = build_case(family, seed=7, max_n=16)
            b = build_case(family, seed=7, max_n=16)
            assert a.name == b.name
            assert np.array_equal(a.matrix.to_dense(), b.matrix.to_dense())

    def test_different_seeds_differ(self):
        a = build_case("spd_random", seed=1, max_n=16)
        b = build_case("spd_random", seed=2, max_n=16)
        assert not np.array_equal(a.matrix.to_dense(), b.matrix.to_dense())

    def test_case_stream_replays_exactly(self):
        take = 2 * len(family_names())
        first = [c.name for _, c in zip(range(take), case_stream(5, max_n=12))]
        second = [c.name for _, c in zip(range(take), case_stream(5, max_n=12))]
        assert first == second
        # One case per family per round, cycling.
        assert [c.split("[")[0] for c in first[:len(family_names())]] \
            == family_names()

    def test_duplicate_coo_sums_to_reference(self):
        rng = np.random.default_rng(11)
        coo, reference = duplicate_entry_coo(rng, 9)
        assert coo.nnz > reference.nnz  # duplication actually happened
        # Equal up to summation-order roundoff (duplicates are reduced in
        # sorted-coordinate order, not generation order).
        assert np.allclose(coo.to_csc().to_dense(), reference.to_dense(),
                           rtol=0.0, atol=16 * np.finfo(np.float64).eps)

    def test_ill_conditioned_hits_target(self):
        rng = np.random.default_rng(3)
        m = ill_conditioned_spd(rng, 12, log_cond=6.0)
        assert condition_estimate(m) > 1e4

    def test_near_singular_is_barely_spd(self):
        rng = np.random.default_rng(4)
        m = near_singular_spd(rng, 10, shift=1e-8)
        assert condition_estimate(m) > 1e6
        SparseSolver(m, kind="cholesky")  # must still factor

    def test_structurally_singular_is_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            SparseSolver(structurally_singular(rng, 8, "cholesky"),
                         kind="cholesky")
        with pytest.raises(ValueError):
            SparseSolver(structurally_singular(rng, 8, "lu"), kind="lu")


# -- oracle --------------------------------------------------------------------


class TestOracle:
    def test_exact_solution_passes(self):
        rng = np.random.default_rng(0)
        m = random_spd(rng, 10)
        x = rng.standard_normal(10)
        b = m.matvec(x)
        check = check_against_oracle(m, x, b)
        assert check.ok
        assert check.backward < check.backward_tol

    def test_corrupted_solution_fails(self):
        rng = np.random.default_rng(1)
        m = random_spd(rng, 10)
        x = rng.standard_normal(10)
        b = m.matvec(x)
        bad = x * (1.0 + 1e-2)
        check = check_against_oracle(m, bad, b)
        assert not check.ok
        assert "error" in check.detail

    def test_backward_error_panel(self):
        rng = np.random.default_rng(2)
        m = random_spd(rng, 8)
        X = rng.standard_normal((8, 3))
        B = m.matvec(X)
        assert backward_error(m, X, B) < 1e-14

    def test_forward_tolerance_scales_with_conditioning(self):
        assert forward_tolerance(1e8, 10) > 1e6 * forward_tolerance(1.0, 10)


# -- differential sweep --------------------------------------------------------


class TestDifferential:
    def test_every_family_green_under_full_sweep(self):
        for family in family_names():
            case = build_case(family, seed=1, max_n=16)
            result = run_case(case)
            assert not result.failed, (
                f"{case.name}: {[m.detail for m in result.mismatches]}"
            )
            expected = "rejected" if case.expect == "singular" else "ok"
            assert result.outcome == expected

    def test_expected_singular_but_accepted_is_a_mismatch(self):
        rng = np.random.default_rng(9)
        case = build_case("spd_random", seed=9, max_n=10)
        case.expect = "singular"
        result = run_case(case, axes=SweepAxes.quick())
        assert result.failed
        assert result.mismatches[0].axis == "outcome"

    def test_unexpected_rejection_is_a_mismatch(self):
        rng = np.random.default_rng(10)
        case = build_case("struct_singular_chol", seed=10, max_n=10)
        case.expect = "ok"
        result = run_case(case, axes=SweepAxes.quick())
        assert result.failed
        assert result.outcome == "rejected"

    def test_equivalent_axes_groups_numeric_mismatches(self):
        group = equivalent_axes({"ordering"})
        assert "oracle" in group and "workers" in group
        assert equivalent_axes({"outcome"}) == frozenset({"outcome"})


# -- shrinking and replay ------------------------------------------------------


class TestShrink:
    def test_shrink_requires_a_failing_input(self):
        rng = np.random.default_rng(0)
        m = random_spd(rng, 6)
        with pytest.raises(ValueError):
            shrink_matrix(m, lambda _: False, max_seconds=1.0)

    def test_shrink_minimizes_dimension(self):
        rng = np.random.default_rng(1)
        m = random_spd(rng, 14)
        shrunk = shrink_matrix(m, lambda c: c.n_rows >= 3, max_seconds=10.0)
        assert shrunk.n_rows == 3

    def test_principal_submatrix(self):
        rng = np.random.default_rng(2)
        m = random_spd(rng, 8)
        keep = np.array([1, 4, 6])
        sub = principal_submatrix(m, keep)
        assert np.array_equal(sub.to_dense(),
                              m.to_dense()[np.ix_(keep, keep)])

    def test_repro_roundtrip_and_green_replay(self, tmp_path):
        case = build_case("spd_random", seed=3, max_n=10)
        result = CaseResult(case=case, mismatches=[Mismatch(
            case=case.name, axis="oracle", detail="synthetic")])
        repro = Repro.from_failure(result, case.matrix)
        path = repro.save(tmp_path / "case.json")
        loaded = load_repro(path)
        assert loaded.axes == ["oracle"]
        assert np.array_equal(loaded.matrix().to_dense(),
                              case.matrix.to_dense())
        # The underlying stack is healthy, so the replay must be green.
        assert not replay_repro(path, axes=SweepAxes.quick()).failed

    def test_repro_schema_version_enforced(self, tmp_path):
        case = build_case("spd_random", seed=4, max_n=8)
        result = CaseResult(case=case, mismatches=[Mismatch(
            case=case.name, axis="oracle", detail="synthetic")])
        repro = Repro.from_failure(result, case.matrix)
        repro.schema_version = 999
        path = repro.save(tmp_path / "bad.json")
        with pytest.raises(ValueError, match="schema_version"):
            load_repro(path)


# -- campaign runner -----------------------------------------------------------


class TestCampaign:
    def test_smoke_campaign_is_green_and_metered(self, tmp_path):
        before = global_registry().value("verify.cases")
        config = VerifyConfig(seed=3, budget_seconds=120.0, max_cases=10,
                              max_n=14, out_dir=str(tmp_path),
                              axes=SweepAxes.quick())
        summary = run_verification(config)
        assert summary.ok
        assert summary.cases == 10
        assert summary.checks > summary.cases
        assert sum(summary.families.values()) == 10
        assert global_registry().value("verify.cases") - before == 10

    def test_campaign_is_deterministic(self, tmp_path):
        config = VerifyConfig(seed=8, budget_seconds=120.0, max_cases=6,
                              max_n=10, out_dir=str(tmp_path),
                              axes=SweepAxes.quick())
        a = run_verification(config)
        b = run_verification(config)
        assert a.families == b.families
        assert a.checks == b.checks

    def test_campaign_artifact_shape(self, tmp_path):
        config = VerifyConfig(seed=1, budget_seconds=120.0, max_cases=3,
                              max_n=8, out_dir=str(tmp_path),
                              axes=SweepAxes.quick())
        summary = run_verification(config)
        artifact = campaign_artifact(summary, config)
        assert artifact.kind == "verify"
        assert artifact.matrix == "fuzz(seed=1)"
        assert artifact.report["cases"] == 3
        assert "verify.cases" in artifact.metrics


# -- CLI -----------------------------------------------------------------------


class TestCli:
    def test_verify_subcommand_green(self, tmp_path, capsys):
        code = main(["verify", "--seed", "2", "--cases", "5",
                     "--max-n", "10", "--out", str(tmp_path / "repros"),
                     "--metrics", str(tmp_path / "artifact.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "verify: 5 cases" in out
        assert (tmp_path / "artifact.json").exists()

    @pytest.mark.parametrize("flag, value", [("--cases", "0"),
                                             ("--cases", "-1"),
                                             ("--jobs", "0"),
                                             ("--jobs", "-3")])
    def test_verify_rejects_nonpositive_counts(self, tmp_path, capsys,
                                               flag, value):
        # A zero-case campaign would pass vacuously; a negative job
        # count would silently run serially.
        code = main(["verify", flag, value,
                     "--out", str(tmp_path / "repros")])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error:")
        assert "verify:" not in out

    def test_verify_replay_green_case(self, tmp_path, capsys):
        case = build_case("spd_random", seed=6, max_n=8)
        result = CaseResult(case=case, mismatches=[Mismatch(
            case=case.name, axis="oracle", detail="synthetic")])
        path = Repro.from_failure(result, case.matrix).save(
            tmp_path / "case.json")
        code = main(["verify", "--replay", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no longer reproduces" in out


# -- mutation check (the subsystem's acceptance test) --------------------------


class TestMutation:
    """A deliberately injected kernel bug must be caught, shrunk to a
    small replayable case, and the repro must go green once the bug is
    removed."""

    @staticmethod
    def _buggy_cholesky_front(panel, update, block=None):
        real_cholesky_front(panel, update, block)
        # Corrupt the last pivot's diagonal — fires on every front, even
        # the 1x1 fronts of diagonal matrices and fully amalgamated ones.
        k = panel.shape[1]
        panel[k - 1, k - 1] *= 1.0 + 1e-3

    def test_injected_bug_is_caught_shrunk_and_replayable(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(schedule_mod, "cholesky_front",
                            self._buggy_cholesky_front)
        config = VerifyConfig(
            seed=0, budget_seconds=120.0, max_cases=4, max_n=18,
            out_dir=str(tmp_path), shrink_seconds=6.0,
            axes=SweepAxes(workers=(1,), block_sizes=(8,), rhs=2,
                           check_kind_cross=False, check_sims=False),
        )
        summary = run_verification(config)
        assert summary.failures >= 1
        assert summary.repro_paths

        sizes = []
        for path in summary.repro_paths:
            repro = load_repro(path)
            sizes.append(repro.n)
            # With the bug still active the repro reproduces the failure.
            assert replay_repro(path, axes=SweepAxes.quick()).failed
        # Acceptance criterion: shrunk to a <= 12x12 replayable case.
        assert min(sizes) <= 12

        # Remove the bug: every repro must flip to green.
        monkeypatch.undo()
        for path in summary.repro_paths:
            assert not replay_repro(path, axes=SweepAxes.quick()).failed

    def test_failure_predicate_sees_the_bug(self, monkeypatch):
        case = build_case("spd_random", seed=1, max_n=14)
        fails = failure_predicate(case, match_axes={"oracle"})
        assert not fails(case.matrix)
        monkeypatch.setattr(schedule_mod, "cholesky_front",
                            self._buggy_cholesky_front)
        assert fails(case.matrix)

"""Regression tests for the per-matrix-family ordering autotuner.

Covers the experience database (trial round-trips through the
:class:`~repro.ordering.autotune.TrialStore`, corrupt-line tolerance,
``trials.jsonl`` lines written by earlier trees), the
warm-cache short-circuit, ``ordering="auto"`` resolution through
``SparseSolver`` and ``solve --ordering auto`` (AMD fallback on an
empty store), and the acceptance criteria: the tuned pick is never
slower than the measured AMD trials, and numeric results agree across
ordering choices.
"""

import json
import logging

import numpy as np
import pytest

from repro.cli import main
from repro.numeric.solver import SparseSolver
from repro.obs.metrics import global_registry
from repro.ordering.autotune import (
    Trial,
    TrialStore,
    TunedConfig,
    autotune,
    best_config,
    matrix_fingerprint,
    resolve_auto,
)
from repro.verify.generators import build_case


@pytest.fixture
def mesh():
    return build_case("spd_mesh", 3, max_n=64).matrix


def make_trial(fingerprint="v1:test", ordering="amd", factorize_s=0.5,
               block_size=64, workers=1):
    return Trial(
        fingerprint=fingerprint, matrix="m", kind="cholesky", n=16,
        ordering=ordering, block_size=block_size, workers=workers,
        analyze_s=0.1, factorize_s=factorize_s, fill=40, flops=200,
    )


class TestTrialStore:
    def test_trial_round_trip(self, tmp_path):
        store = TrialStore(tmp_path)
        trial = make_trial()
        store.add_trial(trial.to_dict())
        (payload,) = store.trials()
        assert Trial.from_dict(payload) == trial

    def test_add_trial_requires_fingerprint(self, tmp_path):
        store = TrialStore(tmp_path)
        with pytest.raises(ValueError):
            store.add_trial({"ordering": "amd"})

    def test_trials_filter_by_fingerprint(self, tmp_path):
        store = TrialStore(tmp_path)
        store.add_trial(make_trial(fingerprint="v1:a").to_dict())
        store.add_trial(make_trial(fingerprint="v1:b").to_dict())
        got = list(store.trials(fingerprint="v1:a"))
        assert len(got) == 1 and got[0]["fingerprint"] == "v1:a"

    def test_corrupt_line_skipped_with_warning(self, tmp_path, caplog):
        store = TrialStore(tmp_path)
        store.add_trial(make_trial().to_dict())
        with store.trials_path.open("a") as fh:
            fh.write("{not json at all\n")
            fh.write(json.dumps(["a", "list"]) + "\n")
        store.add_trial(make_trial(ordering="rcm").to_dict())
        with caplog.at_level(logging.WARNING, logger="repro.ordering.autotune"):
            payloads = list(store.trials())
        assert [p["ordering"] for p in payloads] == ["amd", "rcm"]
        assert sum("skipping" in r.message for r in caplog.records) == 2

    def test_reads_trials_written_by_history_store(self, tmp_path):
        # Literal lines as `HistoryStore.add_trial` wrote them before
        # the trial store moved here: same file name, same line format.
        fp = "v1:cholesky:s1:n4:d5:k0:b4"
        (tmp_path / "trials.jsonl").write_text(
            '{"analyze_s": 0.0020549860018945765, "block_size": 32, '
            '"factorize_s": 0.00021059500068076886, "fill": 76, '
            f'"fingerprint": "{fp}", "flops": 312, "kind": "cholesky", '
            '"matrix": "fuzz:spd_mesh@3", "n": 20, "ordering": "amd", '
            '"schema_version": 1, "workers": 1}\n'
            '{"analyze_s": 0.0013087180013826583, "block_size": 32, '
            '"factorize_s": 9.732800026540644e-05, "fill": 85, '
            f'"fingerprint": "{fp}", "flops": 395, "kind": "cholesky", '
            '"matrix": "fuzz:spd_mesh@3", "n": 20, "ordering": "rcm", '
            '"schema_version": 1, "workers": 1}\n')
        tuned = best_config(TrialStore(tmp_path), fp, kind="cholesky")
        assert tuned == TunedConfig(ordering="rcm", block_size=32,
                                    workers=1, source="tuned")

    def test_best_config_picks_lowest_factorize(self, tmp_path):
        store = TrialStore(tmp_path)
        store.add_trial(make_trial(ordering="amd", factorize_s=0.5).to_dict())
        store.add_trial(make_trial(ordering="rcm", factorize_s=0.2,
                                   block_size=32).to_dict())
        tuned = best_config(store, "v1:test")
        assert tuned == TunedConfig(ordering="rcm", block_size=32,
                                    workers=1, source="tuned")

    def test_best_config_skips_schema_mismatch(self, tmp_path, caplog):
        store = TrialStore(tmp_path)
        # A future/foreign record that parses as JSON but not as a Trial.
        store.add_trial({"fingerprint": "v1:test", "totally": "different"})
        store.add_trial(make_trial(ordering="nd").to_dict())
        with caplog.at_level(logging.WARNING,
                             logger="repro.ordering.autotune"):
            tuned = best_config(store, "v1:test")
        assert tuned is not None and tuned.ordering == "nd"
        assert any("malformed trial" in r.message for r in caplog.records)


class TestAutotune:
    def test_sweep_records_trials(self, tmp_path, mesh):
        store = TrialStore(tmp_path)
        result = autotune(mesh, store, budget="small", matrix_name="mesh")
        assert not result.from_cache
        # small budget: 2 orderings x 2 block sizes x 1 worker count.
        assert len(result.trials) == 4
        assert len(list(store.trials())) == 4
        assert result.config.source == "tuned"
        assert result.fingerprint == matrix_fingerprint(mesh)
        reg = global_registry()
        assert reg.gauge("ordering.autotune.trials").value == 4.0

    def test_warm_cache_skips_sweep(self, tmp_path, mesh):
        store = TrialStore(tmp_path)
        first = autotune(mesh, store, budget="small")
        size_before = store.trials_path.stat().st_size
        second = autotune(mesh, store, budget="small")
        assert second.from_cache and not second.trials
        assert second.config == first.config
        assert store.trials_path.stat().st_size == size_before

    def test_force_resweeps(self, tmp_path, mesh):
        store = TrialStore(tmp_path)
        autotune(mesh, store, budget="small")
        result = autotune(mesh, store, budget="small", force=True)
        assert not result.from_cache
        assert len(list(store.trials())) == 8

    def test_unknown_budget(self, tmp_path, mesh):
        with pytest.raises(ValueError, match="unknown budget"):
            autotune(mesh, TrialStore(tmp_path), budget="huge")

    def test_winner_no_slower_than_amd_trials(self, tmp_path, mesh):
        """Acceptance: the tuned pick's measured factorize time is no
        worse than any measured AMD trial (AMD is in every sweep grid,
        so the argmin can never lose to the AMD default)."""
        result = autotune(mesh, TrialStore(tmp_path), budget="small")
        winner_s = min(t.factorize_s for t in result.trials
                       if (t.ordering, t.block_size, t.workers)
                       == (result.config.ordering, result.config.block_size,
                           result.config.workers))
        amd_s = min(t.factorize_s for t in result.trials
                    if t.ordering == "amd")
        assert winner_s <= amd_s


class TestResolveAuto:
    def test_fallback_without_store(self, mesh):
        tuned = resolve_auto(mesh)
        assert tuned == TunedConfig(ordering="amd", source="fallback")

    def test_fallback_on_empty_store(self, tmp_path, mesh):
        tuned = resolve_auto(mesh, store=TrialStore(tmp_path))
        assert tuned.ordering == "amd" and tuned.source == "fallback"
        assert tuned.block_size is None and tuned.workers is None

    def test_warm_store_serves_tuned_config(self, tmp_path, mesh):
        store = TrialStore(tmp_path)
        swept = autotune(mesh, store, budget="small")
        tuned = resolve_auto(mesh, store=store)
        assert tuned == swept.config
        # Accepts a path string too (what the CLI/serve layer pass).
        assert resolve_auto(mesh, store=str(tmp_path)) == swept.config

    def test_solver_auto_falls_back_to_amd(self, tmp_path, mesh):
        solver = SparseSolver(mesh, ordering="auto",
                              tune_store=TrialStore(tmp_path),
                              use_cache=False)
        assert solver.ordering == "amd"

    def test_solver_auto_uses_warm_store(self, tmp_path, mesh):
        store = TrialStore(tmp_path)
        swept = autotune(mesh, store, budget="small")
        solver = SparseSolver(mesh, ordering="auto", tune_store=store,
                              use_cache=False)
        assert solver.ordering == swept.config.ordering
        assert solver.block_size == swept.config.block_size
        # Explicit knobs beat tuned ones.
        pinned = SparseSolver(mesh, ordering="auto", tune_store=store,
                              block_size=48, use_cache=False)
        assert pinned.block_size == 48


class TestCLI:
    def test_solve_auto_empty_store_falls_back(self, tmp_path, capsys):
        assert main(["solve", "fuzz:spd_mesh@3", "--ordering", "auto",
                     "--tune-store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "ordering auto -> amd" in out

    def test_solve_auto_warm_store(self, tmp_path, capsys, mesh):
        store = tmp_path / "store"
        assert main(["autotune", "fuzz:spd_mesh@3", "--budget", "small",
                     "--store", str(store)]) == 0
        swept = resolve_auto(build_case("spd_mesh", 3, max_n=96).matrix,
                             store=str(store))
        assert swept.source == "tuned"
        assert main(["solve", "fuzz:spd_mesh@3", "--ordering", "auto",
                     "--tune-store", str(store)]) == 0
        out = capsys.readouterr().out
        assert f"ordering auto -> {swept.ordering}" in out

    def test_autotune_cache_hit_message(self, tmp_path, capsys):
        store = tmp_path / "store"
        args = ["autotune", "fuzz:spd_mesh@3", "--store", str(store)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_autotune_metrics_artifact(self, tmp_path, capsys):
        store = tmp_path / "store"
        artifact = tmp_path / "autotune.json"
        assert main(["autotune", "fuzz:spd_mesh@3", "--store", str(store),
                     "--metrics", str(artifact)]) == 0
        payload = json.loads(artifact.read_text())
        assert "quality" in payload["report"]
        assert payload["report"]["quality"]["fill"] > 0
        assert "ordering.quality.fill" in payload["metrics"]


def test_numeric_results_agree_across_orderings(mesh):
    """Acceptance: ordering choice changes speed, never the answer."""
    rng = np.random.default_rng(0)
    b = rng.standard_normal(mesh.n_rows)
    dense = np.linalg.solve(mesh.to_dense(), b)
    for ordering in ("amd", "nd", "rcm", "natural"):
        solver = SparseSolver(mesh, ordering=ordering, use_cache=False)
        solver.factorize()
        x = solver.solve(b)
        assert np.allclose(x, dense, rtol=1e-9, atol=1e-11), ordering

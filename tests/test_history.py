"""Tests for the artifact HTML report, the committed baseline artifact
and artifact schema versions."""

import json
from pathlib import Path

import pytest

from repro.arch.config import SpatulaConfig
from repro.arch.sim import SpatulaSim
from repro.cli import main
from repro.obs import MetricsRegistry, RunArtifact, render_html_report
from repro.symbolic import symbolic_factorize
from repro.tasks.plan import build_plan


@pytest.fixture(scope="module")
def sim_artifact(tmp_path_factory):
    from repro.sparse import grid_laplacian_2d

    cfg = SpatulaConfig.tiny()
    symbolic = symbolic_factorize(grid_laplacian_2d(7, seed=3))
    plan = build_plan(symbolic, tile=cfg.tile, supertile=cfg.supertile)
    sim = SpatulaSim(plan, cfg, matrix_name="grid7",
                     metrics=MetricsRegistry(), trace=True)
    report = sim.run()
    return RunArtifact.from_run(report, attribution=sim.attribution())


class TestHtmlReport:
    def test_self_contained_page(self, sim_artifact, tmp_path):
        html = render_html_report(sim_artifact)
        assert html.startswith("<!doctype html>")
        assert "Cycle attribution" in html
        assert "Critical path" in html
        assert "What-if" in html
        assert "<svg" in html           # utilization timeline
        assert "http" not in html.split("</title>")[1]  # no external refs

    def test_handles_artifact_without_attribution(self, sim_artifact):
        bare = RunArtifact(
            matrix=sim_artifact.matrix, kind=sim_artifact.kind,
            n=sim_artifact.n, config=sim_artifact.config,
            report=sim_artifact.report,
        )
        html = render_html_report(bare)
        assert "Cycle attribution" not in html
        assert "Report" in html

    def test_cli_html(self, sim_artifact, tmp_path, capsys):
        src = tmp_path / "run.json"
        out = tmp_path / "report.html"
        sim_artifact.save(src)
        assert main(["report", str(src), "--html", str(out)]) == 0
        text = out.read_text()
        assert "Cycle attribution" in text


class TestCommittedBaseline:
    BASELINE = (Path(__file__).parent.parent / "benchmarks" / "baselines"
                / "bmwcra_1_0.3_paper.json")

    def test_loads_and_self_diffs_clean(self):
        from repro.obs import diff_artifacts

        art = RunArtifact.load(self.BASELINE)
        assert art.matrix == "suite:bmwcra_1@0.3"
        assert art.attribution is not None
        assert not diff_artifacts(art, art).has_regression

    def test_matches_current_simulator(self, tmp_path):
        # The committed baseline must track the simulator: regenerate the
        # same run and require identical deterministic cycle counts (see
        # benchmarks/baselines/README.md for the regeneration command).
        out = tmp_path / "fresh.json"
        assert main(["simulate", "suite:bmwcra_1@0.3",
                     "--metrics", str(out)]) == 0
        fresh = RunArtifact.load(out)
        baseline = RunArtifact.load(self.BASELINE)
        assert fresh.report["cycles"] == baseline.report["cycles"]


class TestSchemaVersions:
    def test_current_roundtrip_with_attribution(self, sim_artifact,
                                                tmp_path):
        from repro.obs.artifact import SCHEMA_VERSION

        path = tmp_path / "current.json"
        sim_artifact.save(path)
        loaded = RunArtifact.load(path)
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.attribution is not None
        acc = loaded.attribution["cycles"]
        assert acc["total_cycles"] == sim_artifact.report["cycles"]

    def test_v2_artifact_loads_without_telemetry(self, sim_artifact,
                                                 tmp_path):
        # v2 artifacts predate the telemetry/profile sections (v3).
        data = sim_artifact.to_dict()
        data.pop("telemetry", None)
        data.pop("profile", None)
        data["schema_version"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(data))
        loaded = RunArtifact.load(path)
        assert loaded.schema_version == 2
        assert loaded.attribution is not None
        assert loaded.telemetry is None
        assert loaded.profile is None

    def test_v1_artifact_loads_without_attribution(self, sim_artifact,
                                                   tmp_path):
        data = sim_artifact.to_dict()
        data.pop("attribution")
        data["schema_version"] = 1
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(data))
        loaded = RunArtifact.load(path)
        assert loaded.schema_version == 1
        assert loaded.attribution is None
        assert loaded.telemetry is None
        assert loaded.profile is None
        assert loaded.report["cycles"] == sim_artifact.report["cycles"]

    def test_version_error_names_found_and_supported(self, sim_artifact,
                                                     tmp_path):
        data = sim_artifact.to_dict()
        data["schema_version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as err:
            RunArtifact.load(path)
        message = str(err.value)
        assert "99" in message
        assert "1, 2" in message

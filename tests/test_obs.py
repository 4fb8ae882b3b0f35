"""Tests for the observability layer (repro.obs): metrics registry,
span tracer, run artifacts, diffing, and the CLI surface on top."""

import json
import logging

import pytest

from repro.arch.config import SpatulaConfig
from repro.arch.sim import simulate
from repro.cli import main
from repro.obs import (
    MetricsRegistry,
    RunArtifact,
    Tracer,
    diff_artifacts,
    enable_tracing,
    get_tracer,
    render_artifact,
    render_diff,
    setup_logging,
    span,
    verbosity_to_level,
)
from repro.obs.spans import _NULL_CONTEXT

# Global tracer/registry/telemetry isolation is the conftest autouse
# fixture (_isolate_observability_state); no per-file fixture needed.


class TestMetricsRegistry:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        c = reg.counter("sim.tasks")
        c.inc()
        c.inc(4)
        assert reg.value("sim.tasks") == 5

    def test_counter_get_or_create_returns_same(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_gauge_set_and_set_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("cache.hit_rate")
        g.set(0.5)
        g.set_max(0.3)
        assert reg.value("cache.hit_rate") == 0.5
        g.set_max(0.9)
        assert reg.value("cache.hit_rate") == 0.9

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("scheduler.queue_depth")
        for v in (1, 2, 3, 100):
            h.observe(v)
        assert h.count == 4
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(106 / 4)
        assert h.quantile(0.0) <= h.quantile(1.0)

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_value_of_histogram_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1)
        with pytest.raises(TypeError):
            reg.value("h")

    def test_value_default_for_missing(self):
        reg = MetricsRegistry()
        assert reg.value("not.there") == 0
        assert reg.value("not.there", default=-1) == -1

    def test_names_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("hbm.bytes.load")
        reg.counter("hbm.bytes.store")
        reg.counter("cache.hits")
        assert reg.names("hbm.bytes") == ["hbm.bytes.load",
                                          "hbm.bytes.store"]

    def test_contains_and_len(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge("b")
        assert "a" in reg and "b" in reg and "c" not in reg
        assert len(reg) == 2

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(7)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1 and snap["h"]["max"] == 7

    def test_flatten_expands_histograms(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        h = reg.histogram("h")
        h.observe(4)
        h.observe(8)
        flat = reg.flatten()
        assert flat["c"] == 2
        assert flat["h.count"] == 2
        assert flat["h.mean"] == pytest.approx(6.0)
        assert flat["h.max"] == 8


class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("x") is tracer.span("y") is _NULL_CONTEXT
        with tracer.span("x"):
            pass
        assert tracer.spans == []

    def test_detail_span_is_same_noop_without_listener(self):
        tracer = Tracer()
        assert tracer.span("d", detail=True, sn=1) is _NULL_CONTEXT
        tracer.enable()
        # enabled, but nobody listens: still the shared no-op
        assert tracer.span("d", detail=True, sn=1) is _NULL_CONTEXT
        assert tracer.span("phase") is not _NULL_CONTEXT

    def test_detail_span_reaches_listeners_only(self):
        tracer = Tracer()
        tracer.enable()
        seen = []
        tracer.add_listener(seen.append)
        with tracer.span("outer"):
            with tracer.span("task", detail=True, sn=7, part=2):
                pass
        assert [s.name for s in seen] == ["task", "outer"]
        task = seen[0]
        assert task.attrs == {"sn": 7, "part": 2}
        assert task.depth == 0 and task.parent is None
        assert [s.name for s in tracer.spans] == ["outer"]
        assert [d["name"] for d in tracer.export()] == ["outer"]

    def test_global_span_noop_when_disabled(self):
        with span("phase"):
            pass
        assert get_tracer().spans == []

    def test_records_duration(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work"):
            pass
        (s,) = tracer.spans
        assert s.name == "work"
        assert s.duration_s >= 0.0
        assert s.depth == 0 and s.parent is None

    def test_nesting_depth_and_parent(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # completion order
        assert inner.name == "inner"
        assert inner.depth == 1 and inner.parent == "outer"
        assert outer.depth == 0 and outer.parent is None

    def test_span_recorded_on_exception(self):
        tracer = Tracer()
        tracer.enable()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.find("boom")

    def test_memory_capture(self):
        tracer = Tracer()
        tracer.enable(trace_memory=True)
        try:
            with tracer.span("alloc"):
                _ = [0] * 100_000
        finally:
            tracer.disable()
        (s,) = tracer.spans
        assert s.peak_mem_bytes is not None
        assert s.peak_mem_bytes > 100_000

    def test_find_and_total_seconds(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        assert len(tracer.find("a")) == 2
        assert tracer.total_seconds("a") >= 0.0
        assert tracer.total_seconds("nope") == 0.0

    def test_enable_tracing_returns_global(self):
        tracer = enable_tracing()
        assert tracer is get_tracer()
        with span("p"):
            pass
        assert [s.name for s in tracer.spans] == ["p"]

    def test_span_dict_roundtrip(self):
        from repro.obs import Span

        s = Span(name="n", start_s=1.0, duration_s=0.5, depth=2,
                 parent="p", peak_mem_bytes=99)
        assert Span.from_dict(s.to_dict()) == s
        assert "attrs" not in s.to_dict()
        s.attrs = {"k": 3}
        assert Span.from_dict(s.to_dict()) == s


@pytest.fixture(scope="module")
def spd_small_mod():
    from repro.sparse import grid_laplacian_2d

    return grid_laplacian_2d(7, seed=3)


@pytest.fixture(scope="module")
def sim_report(spd_small_mod):
    return simulate(spd_small_mod, config=SpatulaConfig.tiny(),
                    matrix_name="spd_small")


class TestRegistryBackedReport:
    def test_report_carries_registry(self, sim_report):
        assert sim_report.metrics is not None
        assert len(sim_report.metrics) > 0

    def test_headline_fields_match_registry(self, sim_report):
        reg = sim_report.metrics
        assert sim_report.cycles == reg.value("sim.cycles")
        assert sim_report.n_tasks == reg.value("sim.tasks")
        assert sim_report.cache_hits == reg.value("cache.hits")
        assert sim_report.total_dram_bytes == reg.value("hbm.bytes.total")

    def test_component_namespaces_present(self, sim_report):
        names = set(sim_report.metrics.names())
        for expect in ("cache.hits", "cache.misses", "hbm.bytes.total",
                       "noc.port.stall_cycles", "scheduler.launched",
                       "scheduler.queue_depth", "sim.cycles"):
            assert expect in names, f"missing metric {expect}"

    def test_per_channel_hbm_bytes(self, sim_report):
        cfg = sim_report.config
        per_chan = [
            sim_report.metrics.value(f"hbm.chan{i}.bytes")
            for i in range(cfg.hbm_channels)
        ]
        assert sum(per_chan) > 0

    def test_external_registry_is_used(self, spd_small):
        reg = MetricsRegistry()
        report = simulate(spd_small, config=SpatulaConfig.tiny(),
                          metrics=reg)
        assert report.metrics is reg
        assert reg.value("sim.cycles") == report.cycles


class TestRunArtifact:
    def test_from_run_and_roundtrip(self, sim_report, tmp_path):
        art = RunArtifact.from_run(sim_report)
        assert art.matrix == "spd_small"
        assert art.n == sim_report.n
        path = tmp_path / "run.json"
        art.save(path)
        loaded = RunArtifact.load(path)
        assert loaded.report["cycles"] == sim_report.cycles
        assert loaded.metrics["sim.cycles"] == sim_report.cycles
        assert loaded.config["n_pes"] == sim_report.config.n_pes

    def test_load_rejects_wrong_schema(self, sim_report, tmp_path):
        art = RunArtifact.from_run(sim_report)
        data = art.to_dict()
        data["schema_version"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema_version"):
            RunArtifact.load(path)

    def test_embeds_spans_from_tracer(self, sim_report):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("pipeline.test"):
            pass
        art = RunArtifact.from_run(sim_report, tracer=tracer)
        assert [s["name"] for s in art.spans] == ["pipeline.test"]

    def test_flat_metrics_has_report_and_registry(self, sim_report):
        flat = RunArtifact.from_run(sim_report).flat_metrics()
        assert flat["report.cycles"] == float(sim_report.cycles)
        assert "cache.hit_rate" in flat
        assert "scheduler.queue_depth.count" in flat  # histogram expanded

    def test_render_artifact_mentions_headlines(self, sim_report):
        text = render_artifact(RunArtifact.from_run(sim_report))
        assert "spd_small" in text
        assert "cycles" in text and "cache.hits" in text


class TestDiff:
    def _artifact(self, sim_report, **metric_overrides):
        art = RunArtifact.from_run(sim_report)
        art.metrics = dict(art.metrics)
        art.metrics.update(metric_overrides)
        return art

    def test_identical_artifacts_no_regression(self, sim_report):
        a = RunArtifact.from_run(sim_report)
        result = diff_artifacts(a, a)
        assert not result.has_regression

    def test_lower_is_better_regression(self, sim_report):
        a = self._artifact(sim_report, **{"cache.misses": 100})
        b = self._artifact(sim_report, **{"cache.misses": 120})
        result = diff_artifacts(a, b, threshold=0.05)
        assert result.has_regression
        names = {d.name for d in result.regressions}
        assert "cache.misses" in names

    def test_higher_is_better_regression(self, sim_report):
        a = self._artifact(sim_report, **{"cache.hit_rate": 0.9})
        b = self._artifact(sim_report, **{"cache.hit_rate": 0.5})
        assert diff_artifacts(a, b).has_regression

    def test_improvement_is_not_regression(self, sim_report):
        a = self._artifact(sim_report, **{"cache.misses": 120})
        b = self._artifact(sim_report, **{"cache.misses": 100})
        assert not diff_artifacts(a, b).has_regression

    def test_threshold_gates_small_moves(self, sim_report):
        a = self._artifact(sim_report, **{"cache.misses": 100})
        b = self._artifact(sim_report, **{"cache.misses": 103})
        assert not diff_artifacts(a, b, threshold=0.05).has_regression
        assert diff_artifacts(a, b, threshold=0.01).has_regression

    def test_unwatched_metric_never_regresses(self, sim_report):
        a = self._artifact(sim_report, **{"scheduler.launched": 10})
        b = self._artifact(sim_report, **{"scheduler.launched": 10_000})
        named = [d for d in diff_artifacts(a, b).deltas
                 if d.name == "scheduler.launched"]
        assert named and not named[0].regressed

    def test_vanished_watched_metric_fails_the_gate(self, sim_report):
        a = self._artifact(sim_report, **{"verify.mismatches": 0,
                                          "scheduler.extra": 1})
        b = self._artifact(sim_report)
        result = diff_artifacts(a, b)
        (missing,) = result.regressions
        assert missing.name == "verify.mismatches" and missing.missing
        # an unwatched metric may come and go freely
        assert all(d.name != "scheduler.extra" for d in result.deltas)
        text = render_diff(result)
        assert "verify.mismatches" in text and "<< MISSING" in text
        # a metric only the new artifact has is not a finding
        assert not diff_artifacts(b, a).has_regression

    def test_render_diff_marks_regressions(self, sim_report):
        a = self._artifact(sim_report, **{"cache.misses": 100})
        b = self._artifact(sim_report, **{"cache.misses": 200})
        text = render_diff(diff_artifacts(a, b))
        assert "<< REGRESSION" in text
        assert "cache.misses" in text


class TestLogging:
    def test_verbosity_mapping(self):
        assert verbosity_to_level(0) == logging.WARNING
        assert verbosity_to_level(1) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG
        assert verbosity_to_level(5) == logging.DEBUG

    def test_setup_logging_idempotent(self):
        logger = setup_logging("info")
        n = len(logger.handlers)
        assert setup_logging("debug") is logger
        assert len(logger.handlers) == n
        assert logger.level == logging.DEBUG
        assert logger.name == "repro"


class TestCLI:
    def test_simulate_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["simulate", "suite:bmwcra_1@0.3",
                     "--metrics", str(out)]) == 0
        art = RunArtifact.load(out)
        from repro.obs.artifact import SCHEMA_VERSION

        assert art.schema_version == SCHEMA_VERSION
        assert art.report["cycles"] > 0
        assert art.attribution is not None
        assert art.attribution["critical_path"]["cp_cycles"] <= \
            art.report["cycles"]
        span_names = {s["name"] for s in art.spans}
        for phase in ("pipeline.load_matrix", "symbolic.etree",
                      "symbolic.supernodes", "plan.build", "sim.run"):
            assert phase in span_names, f"missing span {phase}"
        for metric in ("cache.hits", "noc.port.stall_cycles",
                       "hbm.bytes.total", "scheduler.max_queue_depth"):
            assert metric in art.metrics, f"missing metric {metric}"

    def test_simulate_metrics_with_chrome_trace(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        assert main(["simulate", "suite:bmwcra_1@0.3",
                     "--metrics", str(tmp_path / "m.json"),
                     "--trace", str(trace_path)]) == 0
        data = json.loads(trace_path.read_text())
        pids = {e["pid"] for e in data["traceEvents"]}
        assert pids == {0, 1}  # simulated PEs + host pipeline spans

    def test_report_pretty_prints(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        main(["simulate", "suite:bmwcra_1@0.3", "--metrics", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "cycles" in text and "sim.run" in text

    def test_report_diff_identical_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        main(["simulate", "suite:bmwcra_1@0.3", "--metrics", str(out)])
        assert main(["report", "--diff", str(out), str(out)]) == 0
        assert "no watched metric regressed" in capsys.readouterr().out

    def test_report_diff_regression_exits_nonzero(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        main(["simulate", "suite:bmwcra_1@0.3", "--metrics", str(a)])
        data = json.loads(a.read_text())
        data["report"]["cycles"] = int(data["report"]["cycles"] * 2)
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        assert main(["report", "--diff", str(a), str(b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_report_diff_missing_watched_metric_exits_nonzero(
            self, tmp_path, capsys):
        a = tmp_path / "a.json"
        main(["simulate", "suite:bmwcra_1@0.3", "--metrics", str(a)])
        data = json.loads(a.read_text())
        del data["metrics"]["cache.misses"]
        b = tmp_path / "b.json"
        b.write_text(json.dumps(data))
        assert main(["report", "--diff", str(a), str(b)]) == 1
        assert "<< MISSING" in capsys.readouterr().out

    def test_report_diff_requires_two_files(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        main(["simulate", "suite:bmwcra_1@0.3", "--metrics", str(out)])
        capsys.readouterr()
        assert main(["report", "--diff", str(out)]) != 0

    def test_verbose_flag_accepted(self, capsys):
        assert main(["-v", "info", "suite:bmwcra_1@0.3"]) == 0


class TestWatchedMetricProducers:
    def test_every_watched_metric_has_a_producer(self, tmp_path):
        """Each WATCHED_METRICS name is recorded by a command or server
        a user actually runs — a gate on a metric nothing produces is a
        gate that can never fire."""
        import numpy as np

        from repro.obs import global_registry
        from repro.obs.artifact import WATCHED_METRICS
        from repro.serve import ServeConfig, SolveServer
        from repro.sparse import grid_laplacian_2d

        produced: set[str] = set()
        for name, argv in [
            ("solve", ["solve", "suite:bmwcra_1@0.3", "--workers", "2",
                       "--repeat", "2",
                       "--telemetry-dir", str(tmp_path / "telemetry")]),
            ("simulate", ["simulate", "suite:bmwcra_1@0.3"]),
            ("verify", ["verify", "--seed", "1", "--cases", "3",
                        "--max-n", "24", "--out", str(tmp_path / "repros")]),
        ]:
            path = tmp_path / f"{name}.json"
            assert main(argv + ["--metrics", str(path)]) == 0
            produced |= set(RunArtifact.load(path).flat_metrics())

        server = SolveServer(ServeConfig(max_batch=4))
        try:
            matrix = grid_laplacian_2d(5, seed=1)
            pattern = server.factor(matrix)["pattern"]
            server.solve(pattern, np.ones(matrix.n_rows))
            server.stats(export=True)
            produced |= set(global_registry().snapshot())
        finally:
            server.shutdown()

        assert sorted(set(WATCHED_METRICS) - produced) == []

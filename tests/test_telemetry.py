"""Tests for runtime telemetry (repro.obs.telemetry), wall-clock
profiling (repro.obs.profile), the bounded analysis cache, and the CLI
surface on top (--telemetry-dir / --profile)."""

import json
import os
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main
from repro.numeric.cache import (
    DEFAULT_CAPACITY,
    AnalysisCache,
    _capacity_from_env,
)
from repro.numeric.solver import SparseSolver
from repro.obs import RunArtifact, telemetry
from repro.obs.metrics import (
    Counter,
    MetricsRegistry,
    global_registry,
    reset_global_registry,
)
from repro.obs.profile import (
    Profiler,
    ProfileResult,
    SamplingProfiler,
    flamegraph_svg,
)
from repro.obs.spans import enable_tracing, span
from repro.obs.telemetry import (
    chrome_trace,
    export_latency_metrics,
    latency_percentiles,
    read_stream,
)


def _events(path):
    """Every line of a stream, parsed strictly (a bad line fails)."""
    with open(path) as f:
        return [json.loads(line) for line in f]


class TestSink:
    def test_stream_is_one_jsonl_file_per_process(self, tmp_path):
        ctx = telemetry.start(tmp_path, run_id="run-t1", heartbeat_s=None)
        assert telemetry.active()
        with span("unit.work", detail=True, item=3):
            pass
        telemetry.stop()
        assert not telemetry.active()
        assert [p.name for p in tmp_path.iterdir()] == ["run-t1.jsonl"]
        events = _events(tmp_path / "run-t1.jsonl")
        assert events[0]["t"] == "meta"
        assert events[0]["run"] == "run-t1"
        assert events[0]["pid"] == os.getpid()
        spans = [e for e in events if e["t"] == "span"]
        assert [s["name"] for s in spans] == ["unit.work"]
        assert spans[0]["run"] == "run-t1"
        assert spans[0]["attrs"] == {"item": 3}
        assert ctx.run_id == "run-t1"

    def test_tracer_spans_mirror_into_sink(self, tmp_path):
        telemetry.start(tmp_path, run_id="run-t2", heartbeat_s=None)
        with span("phase.one"):
            with span("phase.two"):
                pass
        telemetry.stop()
        events = _events(tmp_path / "run-t2.jsonl")
        names = [e["name"] for e in events if e["t"] == "span"]
        # Inner span completes first; both are mirrored.
        assert names == ["phase.two", "phase.one"]

    def test_start_is_idempotent(self, tmp_path):
        ctx1 = telemetry.start(tmp_path, heartbeat_s=None)
        ctx2 = telemetry.start(tmp_path, heartbeat_s=None)
        assert ctx1 is ctx2
        telemetry.stop()

    def test_task_span_is_noop_when_off(self):
        cm1 = span("anything", detail=True, x=1)
        cm2 = span("other", detail=True)
        assert cm1 is cm2            # the shared null context manager
        with cm1:
            pass

    def test_heartbeats_and_registry_dump(self, tmp_path):
        telemetry.start(tmp_path, run_id="run-t4", heartbeat_s=0.02)
        global_registry().counter("unit.count").inc(7)
        time.sleep(0.08)
        telemetry.stop()
        events = _events(tmp_path / "run-t4.jsonl")
        hbs = [e for e in events if e["t"] == "hb"]
        assert len(hbs) >= 2          # periodic beats + the final one
        dumps = [e for e in events if e["t"] == "counters"]
        assert dumps and dumps[-1]["counters"]["unit.count"] == 7

    def test_log_records_are_captured(self, tmp_path):
        import logging

        telemetry.start(tmp_path, run_id="run-t5", heartbeat_s=None)
        # warning(): above any ambient logger level, so the record
        # reaches the sink handler regardless of setup_logging state.
        logging.getLogger("repro.unit").warning("hello %d", 42)
        telemetry.stop()
        events = _events(tmp_path / "run-t5.jsonl")
        logs = [e for e in events if e["t"] == "log"]
        assert any(e["msg"] == "hello 42" for e in logs)

    @pytest.mark.parametrize("platform, scale", [("darwin", 1),
                                                 ("linux", 1024)])
    def test_heartbeat_rss_units(self, monkeypatch, platform, scale):
        # ru_maxrss is bytes on macOS and KiB elsewhere, whatever its
        # size: 3 MiB on macOS must not read as 3 GiB.
        import resource

        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(resource, "getrusage",
                            lambda who: SimpleNamespace(ru_maxrss=3 << 20))
        assert telemetry._rss_bytes() == (3 << 20) * scale


class TestCollector:
    """Reading one finished stream back."""

    def _write_stream(self, tmp_path, spans):
        path = tmp_path / "run-c.jsonl"
        with open(path, "w") as f:
            f.write(json.dumps({
                "t": "meta", "run": "run-c", "pid": 100, "tid": 1,
                "parent": None, "wall": 1000.0, "perf": 50.0}) + "\n")
            for name, tid, start, dur in spans:
                f.write(json.dumps({
                    "t": "span", "run": "run-c", "pid": 100, "tid": tid,
                    "name": name, "start": start, "dur": dur,
                    "depth": 0, "parent": None}) + "\n")
        return path

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = self._write_stream(tmp_path, [("a", 1, 50.5, 0.1)])
        with open(path, "a") as f:
            f.write('{"t": "span", "run": "run-c", "pid": 100, "na')
        events = read_stream(path)
        assert [e["t"] for e in events] == ["meta", "span"]

    def test_chrome_trace_export(self, tmp_path):
        path = self._write_stream(tmp_path, [("a", 1, 50.5, 0.1),
                                             ("b", 7, 50.6, 0.1),
                                             ("c", 1, 50.8, 0.1)])
        out = tmp_path / "trace.json"
        chrome_trace(read_stream(path), out)
        events = json.loads(out.read_text())["traceEvents"]
        assert {e["pid"] for e in events} == {100}
        lanes = {e["tid"] for e in events if e["name"] == "thread_name"}
        assert lanes == {0, 1}            # one lane per thread
        xs = {e["name"]: e for e in events if e["ph"] == "X"}
        assert {n: e["tid"] for n, e in xs.items()} == {"a": 0, "b": 1,
                                                         "c": 0}
        assert xs["a"]["ts"] == pytest.approx(0.5e6)
        assert all(e["args"]["run"] == "run-c" for e in xs.values())


class TestLatency:
    def test_percentiles(self):
        durations = {"solve": [0.001 * (i + 1) for i in range(100)]}
        out = latency_percentiles(durations)
        st = out["solve"]
        assert st["count"] == 100
        assert st["p50_ms"] == pytest.approx(50.5, rel=0.02)
        assert st["p99_ms"] > st["p95_ms"] > st["p50_ms"]
        assert st["max_ms"] == pytest.approx(100.0)
        assert latency_percentiles({"empty": []}) == {}

    def test_export_latency_metrics_gauges(self):
        reg = MetricsRegistry()
        summary = latency_percentiles({"numeric.solve": [0.01, 0.02]})
        export_latency_metrics(summary, registry=reg)
        snap = reg.snapshot()
        assert "latency.numeric.solve.p50_ms" in snap
        assert "latency.numeric.solve.p95_ms" in snap
        assert "latency.numeric.solve.p99_ms" in snap

    def test_latency_metrics_are_watched_by_trend_gate(self):
        from repro.obs import diff_artifacts

        def art(p95):
            metrics = {"latency.numeric.solve.p50_ms": p95 / 2,
                       "latency.numeric.solve.p95_ms": p95,
                       "latency.numeric.solve.p99_ms": p95 * 1.2}
            return RunArtifact(
                matrix="m", kind="cholesky", n=100, config={},
                report={}, metrics=metrics,
                created_at="2026-08-08T00:00:00")

        assert not diff_artifacts(art(10.0), art(10.2)).has_regression
        bad = diff_artifacts(art(10.0), art(25.0))
        assert bad.has_regression
        names = [d.name for d in bad.regressions]
        assert "latency.numeric.solve.p95_ms" in names


class TestTracerThreadSafety:
    def test_concurrent_spans_from_many_threads(self):
        tracer = enable_tracing()
        tracer.reset()
        n_threads, per_thread = 8, 40
        errors = []

        def work(t):
            try:
                for _ in range(per_thread):
                    with span(f"outer.t{t}"):
                        with span(f"inner.t{t}"):
                            pass
            except Exception as exc:             # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(tracer.spans) == n_threads * per_thread * 2
        # Depth/parent chains are per-thread: an inner span's parent is
        # its own thread's outer span, never another thread's.
        for s in tracer.spans:
            if s.name.startswith("inner.t"):
                tid = s.name.split(".")[-1]
                assert s.depth == 1
                assert s.parent == f"outer.{tid}"
            else:
                assert s.depth == 0

    def test_listeners_see_every_completed_span(self):
        tracer = enable_tracing()
        tracer.reset()
        seen = []
        lock = threading.Lock()

        def listener(s):
            with lock:
                seen.append(s.name)

        tracer.add_listener(listener)
        try:
            def work(t):
                for _ in range(25):
                    with span(f"s{t}"):
                        pass

            workers = [threading.Thread(target=work, args=(t,))
                       for t in range(6)]
            for w in workers:
                w.start()
            for w in workers:
                w.join()
        finally:
            tracer.remove_listener(listener)
        assert len(seen) == 6 * 25

    def test_worker_pool_spans_stream_to_sink(self, tmp_path, spd_medium):
        # The real consumer: the numeric scheduler's workers emitting
        # concurrent spans while telemetry mirrors them to the sink.
        telemetry.start(tmp_path, run_id="run-th", heartbeat_s=None)
        solver = SparseSolver(spd_medium, workers=4)
        b = np.ones(spd_medium.n_rows)
        x = solver.solve(b)
        telemetry.stop()
        assert solver.residual_norm(spd_medium, x, b) < 1e-10
        events = _events(tmp_path / "run-th.jsonl")
        names = {e["name"] for e in events if e["t"] == "span"}
        assert "numeric.factorize" in names
        assert "numeric.solve" in names
        assert "numeric.supernode" in names   # per-task detail spans


class TestArtifactTelemetrySections:
    def test_v3_roundtrip_with_telemetry_and_profile(self, tmp_path):
        telem = {"run_id": "run-x", "dir": "telemetry",
                 "latency_ms": {"numeric.solve": {
                     "count": 4, "mean_ms": 1.0, "p50_ms": 1.0,
                     "p95_ms": 2.0, "p99_ms": 2.5, "max_ms": 3.0}}}
        prof = ProfileResult(mode="cprofile", seconds=0.5,
                             top=[{"func": "f", "file": "m.py",
                                   "line": 1, "ncalls": 1,
                                   "cumtime_s": 0.4, "tottime_s": 0.1}],
                             folded={"main;f": 10})
        artifact = RunArtifact(
            matrix="m", kind="lu", n=10, config={}, report={},
            telemetry=telem, profile=prof.to_dict(),
            created_at="2026-08-08T00:00:00")
        path = tmp_path / "a.json"
        artifact.save(path)
        loaded = RunArtifact.load(path)
        assert loaded.schema_version == 3
        assert loaded.telemetry["run_id"] == "run-x"
        assert loaded.profile["mode"] == "cprofile"
        from repro.obs import render_artifact

        text = render_artifact(loaded)
        assert "run run-x" in text
        assert "numeric.solve" in text

    def test_sections_absent_by_default(self, tmp_path):
        artifact = RunArtifact(matrix="m", kind="lu", n=10, config={},
                               report={})
        path = tmp_path / "a.json"
        artifact.save(path)
        data = json.loads(path.read_text())
        assert "telemetry" not in data
        assert "profile" not in data


def _busy(seconds: float) -> float:
    total = 0.0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        total += sum(float(i) for i in range(200))
    return total


class TestProfiler:
    def test_cprofile_mode_captures_top_functions(self):
        prof = Profiler(mode="cprofile")
        prof.start()
        _busy(0.05)
        result = prof.stop()
        assert result.mode == "cprofile"
        assert result.seconds >= 0.05
        assert result.top
        assert "_busy" in result.render_top(limit=30)

    def test_sampling_profiler_folds_stacks(self):
        if not SamplingProfiler.available():
            pytest.skip("sampling profiler needs Unix + main thread")
        prof = Profiler(mode="sample", interval=0.001)
        prof.start()
        _busy(0.2)
        result = prof.stop()
        assert result.samples > 0
        assert result.folded
        assert any("_busy" in stack for stack in result.folded)

    def test_stop_is_idempotent(self):
        prof = Profiler(mode="cprofile")
        prof.start()
        first = prof.stop()
        assert prof.stop() is first

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Profiler(mode="magic")

    def test_result_dict_roundtrip(self):
        result = ProfileResult(mode="both", seconds=1.0,
                               top=[{"func": "f"}], folded={"a;b": 3},
                               samples=3, interval_s=0.005)
        again = ProfileResult.from_dict(result.to_dict())
        assert again.mode == "both"
        assert again.folded == {"a;b": 3}
        assert again.samples == 3

    def test_flamegraph_svg_self_contained(self):
        svg = flamegraph_svg({"main;work;leaf": 30, "main;other": 10})
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "<script" not in svg
        assert "leaf" in svg
        # Empty input renders a placeholder, not a broken SVG.
        assert "<svg" not in flamegraph_svg({})


class TestAnalysisCacheBounds:
    def _matrices(self, count):
        from repro.sparse import grid_laplacian_2d

        return [grid_laplacian_2d(4 + i, seed=i) for i in range(count)]

    def test_lru_eviction_and_counters(self):
        cache = AnalysisCache(capacity=2)
        m1, m2, m3 = self._matrices(3)
        cache.get_or_analyze(m1, "cholesky", "amd")
        cache.get_or_analyze(m2, "cholesky", "amd")
        cache.get_or_analyze(m1, "cholesky", "amd")   # m1 now MRU
        cache.get_or_analyze(m3, "cholesky", "amd")   # evicts m2 (LRU)
        assert len(cache) == 2
        stats = cache.stats()
        assert stats == {"size": 2, "capacity": 2, "hits": 1,
                         "misses": 3, "evictions": 1}
        cache.get_or_analyze(m1, "cholesky", "amd")   # m1 survived
        assert cache.stats()["hits"] == 2
        snap = global_registry().snapshot()
        assert snap["numeric.analysis_cache.evictions"] == 1
        assert snap["numeric.analysis_cache.size"] == 2
        assert snap["numeric.analysis_cache.capacity"] == 2
        with pytest.raises(ValueError, match="capacity"):
            AnalysisCache(capacity=0)

    def test_capacity_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ANALYSIS_CACHE_CAP", raising=False)
        assert _capacity_from_env() == DEFAULT_CAPACITY
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE_CAP", "5")
        assert _capacity_from_env() == 5
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE_CAP", "junk")
        assert _capacity_from_env() == DEFAULT_CAPACITY
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE_CAP", "-3")
        assert _capacity_from_env() == 1


class TestCLITelemetry:
    def test_solve_with_telemetry_repeat_and_artifact(self, tmp_path,
                                                      capsys):
        tel = tmp_path / "telemetry"
        art = tmp_path / "run.json"
        assert main(["solve", "suite:bmwcra_1@0.3", "--workers", "2",
                     "--repeat", "4", "--telemetry-dir", str(tel),
                     "--metrics", str(art)]) == 0
        out = capsys.readouterr().out
        assert "telemetry: run " in out
        loaded = RunArtifact.load(art)
        run_id = loaded.telemetry["run_id"]
        assert sorted(p.name for p in tel.iterdir()) == [
            f"{run_id}.jsonl", f"{run_id}.trace.json"]
        assert "n_processes" not in loaded.telemetry
        lat = loaded.telemetry["latency_ms"]
        assert lat["numeric.factorize"]["count"] == 4
        assert lat["numeric.solve"]["count"] == 4
        assert "latency.numeric.solve.p95_ms" in loaded.metrics
        # Detail spans reach the JSONL stream with their attrs and stay
        # out of the artifact.
        events = _events(tel / f"{run_id}.jsonl")
        supernodes = [e for e in events
                      if e["t"] == "span"
                      and e["name"] == "numeric.supernode"]
        assert supernodes
        assert all(isinstance(e["attrs"]["sn"], int) for e in supernodes)
        assert all(e["depth"] == 0 and e["parent"] is None
                   for e in supernodes)
        artifact_names = {s["name"] for s in loaded.spans}
        assert "numeric.factorize" in artifact_names
        assert "numeric.supernode" not in artifact_names
        # The Chrome trace has one lane per thread that completed a span.
        trace = json.loads((tel / f"{run_id}.trace.json").read_text())
        lanes = [e for e in trace["traceEvents"]
                 if e["name"] == "thread_name"]
        span_tids = {e["tid"] for e in events if e["t"] == "span"}
        assert len(lanes) == len(span_tids | {events[0]["tid"]})

    def test_profile_flag_writes_reports(self, tmp_path, capsys):
        tel = tmp_path / "telemetry"
        assert main(["solve", "suite:bmwcra_1@0.3", "--profile",
                     "--profile-mode", "cprofile",
                     "--telemetry-dir", str(tel)]) == 0
        out = capsys.readouterr().out
        assert "profile: " in out
        assert list(tel.glob("*.profile.txt"))

    def test_profile_without_telemetry_prints_table(self, capsys):
        assert main(["solve", "suite:bmwcra_1@0.3", "--profile",
                     "--profile-mode", "cprofile"]) == 0
        out = capsys.readouterr().out
        assert "cumtime" in out

    def test_verify_jobs_emit_case_spans(self, tmp_path, capsys):
        """``--jobs 2`` leaves the same one stream, summary and counters
        as ``--jobs 1``: pool workers hand their spans and counters back
        to the parent and never write into its open stream."""
        artifacts = {}
        for jobs in (2, 1):
            reset_global_registry()
            tel = tmp_path / f"telemetry{jobs}"
            art = tmp_path / f"verify{jobs}.json"
            assert main(["verify", "--cases", "24", "--max-n", "24",
                         "--budget", "600", "--jobs", str(jobs),
                         "--telemetry-dir", str(tel),
                         "--out", str(tmp_path / "repros"),
                         "--metrics", str(art)]) == 0
            capsys.readouterr()
            (stream,) = tel.glob("*.jsonl")
            events = _events(stream)
            assert {e["pid"] for e in events} == {os.getpid()}
            cases = [e for e in events if e["t"] == "span"
                     and e["name"] == "verify.case"]
            assert len(cases) == 24
            worker_pids = {e["attrs"]["pid"] for e in cases}
            assert (worker_pids == {os.getpid()}) == (jobs == 1)
            artifacts[jobs] = RunArtifact.load(art)
        registry = global_registry()      # the serial run's, run last
        counters = {name for name in registry.names()
                    if isinstance(registry.get(name), Counter)}
        serial, pooled = artifacts[1], artifacts[2]
        serial.report.pop("seconds")
        pooled.report.pop("seconds")
        assert serial.report == pooled.report
        assert counters <= set(pooled.metrics)
        exact = {"numeric.factor.count", "numeric.solve.count",
                 "numeric.factor.flops"} | {
            name for name in counters
            if name.startswith("verify.") and name != "verify.seconds"}
        assert {n: pooled.metrics[n] for n in exact} == {
            n: serial.metrics[n] for n in exact}

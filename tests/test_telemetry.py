"""Tests for runtime telemetry (repro.obs.telemetry), wall-clock
profiling (repro.obs.profile), the bounded analysis cache, and the CLI
surface on top (--telemetry-dir / --profile / repro telemetry)."""

import json
import multiprocessing
import os
import threading
import time

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
from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.profile import (
    Profiler,
    ProfileResult,
    SamplingProfiler,
    flamegraph_svg,
)
from repro.obs.spans import enable_tracing, span
from repro.obs.telemetry import (
    RunContext,
    collect,
    export_latency_metrics,
    latency_percentiles,
    list_runs,
    timeline_chrome_trace,
)


def _events(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


class TestSink:
    def test_stream_is_one_jsonl_file_per_process(self, tmp_path):
        ctx = telemetry.start(tmp_path, run_id="run-t1", heartbeat_s=None)
        assert telemetry.active()
        with span("unit.work", detail=True, item=3):
            pass
        telemetry.stop()
        assert not telemetry.active()
        path = tmp_path / f"run-t1.{os.getpid()}.jsonl"
        assert path.exists()
        events = _events(path)
        assert events[0]["t"] == "meta"
        assert events[0]["run"] == "run-t1"
        assert events[0]["pid"] == os.getpid()
        assert events[0]["role"] == "main"
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
        events = _events(tmp_path / f"run-t2.{os.getpid()}.jsonl")
        names = [e["name"] for e in events if e["t"] == "span"]
        # Inner span completes first; both are mirrored.
        assert names == ["phase.two", "phase.one"]

    def test_env_handshake_published_and_cleared(self, tmp_path):
        telemetry.start(tmp_path, run_id="run-t3", parent_span_id="solve",
                        heartbeat_s=None)
        assert os.environ[telemetry.ENV_DIR] == str(tmp_path)
        assert os.environ[telemetry.ENV_RUN] == "run-t3"
        assert os.environ[telemetry.ENV_PARENT] == "solve"
        telemetry.stop()
        assert telemetry.ENV_RUN not in os.environ

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
        events = _events(tmp_path / f"run-t4.{os.getpid()}.jsonl")
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
        events = _events(tmp_path / f"run-t5.{os.getpid()}.jsonl")
        logs = [e for e in events if e["t"] == "log"]
        assert any(e["msg"] == "hello 42" for e in logs)

    def test_run_context_env_roundtrip(self, tmp_path):
        ctx = RunContext(run_id="r", telemetry_dir=str(tmp_path),
                         parent_span_id="verify")
        env = ctx.env()
        assert env[telemetry.ENV_RUN] == "r"
        assert env[telemetry.ENV_PARENT] == "verify"


def _mp_worker_job(i: int) -> int:
    """Module-level pool job (pickles by reference under fork/spawn)."""
    with span("mp.case", detail=True, case=i):
        time.sleep(0.01)
    return os.getpid()


class TestMultiprocessing:
    def test_workers_join_run_and_emit_spans(self, tmp_path):
        telemetry.start(tmp_path, run_id="run-mp", parent_span_id="test",
                        heartbeat_s=None)
        with multiprocessing.Pool(
                2, initializer=telemetry.init_worker) as pool:
            pids = pool.map(_mp_worker_job, range(6))
        telemetry.stop()
        timeline = collect(tmp_path, run_id="run-mp")
        roles = [s.role for s in timeline.streams]
        assert roles[0] == "main"
        assert roles.count("worker") == len(set(pids))
        worker_spans = [s for stream in timeline.streams
                        if stream.role == "worker"
                        for s in stream.spans]
        assert len(worker_spans) == 6
        # Every worker event carries the parent run id; the stream
        # carries the parent span id from the env handshake.
        assert all(s["run"] == "run-mp" for s in worker_spans)
        assert all(s.parent_span_id == "test"
                   for s in timeline.streams if s.role == "worker")

    def test_init_worker_without_env_is_noop(self):
        assert telemetry.init_worker() is None
        assert not telemetry.active()


class TestCollector:
    def _write_stream(self, tmp_path, pid, wall0, perf0, spans,
                      role="worker"):
        path = tmp_path / f"run-c.{pid}.jsonl"
        with open(path, "w") as f:
            f.write(json.dumps({
                "t": "meta", "run": "run-c", "pid": pid, "tid": 1,
                "role": role, "parent": None,
                "wall": wall0, "perf": perf0}) + "\n")
            for name, start, dur in spans:
                f.write(json.dumps({
                    "t": "span", "run": "run-c", "pid": pid, "tid": 1,
                    "name": name, "start": start, "dur": dur,
                    "depth": 0, "parent": None}) + "\n")
        return path

    def test_clock_alignment_across_processes(self, tmp_path):
        # Two processes whose perf_counter origins differ wildly; the
        # wall/perf pair in the meta event rebases them onto one axis.
        self._write_stream(tmp_path, 100, wall0=1000.0, perf0=50.0,
                           spans=[("a", 50.5, 0.1)], role="main")
        self._write_stream(tmp_path, 200, wall0=1001.0, perf0=9000.0,
                           spans=[("b", 9000.2, 0.1)])
        timeline = collect(tmp_path, run_id="run-c")
        spans = timeline.spans()
        by_name = {s["name"]: s for s in spans}
        assert by_name["a"]["wall_start_s"] == pytest.approx(0.5)
        assert by_name["b"]["wall_start_s"] == pytest.approx(1.2)
        assert [s["name"] for s in spans] == ["a", "b"]

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = self._write_stream(tmp_path, 100, 1000.0, 0.0,
                                  [("a", 0.5, 0.1)], role="main")
        with open(path, "a") as f:
            f.write('{"t": "span", "run": "run-c", "pid": 100, "na')
        timeline = collect(tmp_path, run_id="run-c")
        assert len(timeline.streams[0].spans) == 1

    def test_collect_without_streams_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect(tmp_path)
        with pytest.raises(FileNotFoundError):
            collect(tmp_path, run_id="run-none")

    def test_list_runs_sorted(self, tmp_path):
        self._write_stream(tmp_path, 1, 0.0, 0.0, [])
        (tmp_path / "run-a.2.jsonl").write_text("")
        (tmp_path / "stray.txt").write_text("")
        assert list_runs(tmp_path) == ["run-a", "run-c"]
        assert list_runs(tmp_path / "missing") == []

    def test_chrome_trace_export(self, tmp_path):
        self._write_stream(tmp_path, 100, 1000.0, 0.0,
                           [("a", 0.5, 0.1)], role="main")
        self._write_stream(tmp_path, 200, 1000.0, 0.0,
                           [("b", 0.6, 0.1)])
        timeline = collect(tmp_path, run_id="run-c")
        out = tmp_path / "trace.json"
        timeline_chrome_trace(timeline, out)
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        proc_names = [e for e in events if e["name"] == "process_name"]
        assert {e["pid"] for e in proc_names} == {100, 200}
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"a", "b"}
        assert all(e["args"]["run"] == "run-c" for e in xs)

    def test_merged_counters_sum_and_gauges_last_win(self):
        from repro.obs.telemetry import ProcessStream, Timeline

        s1 = ProcessStream(pid=1, role="main", run_id="r",
                           parent_span_id=None, path="x",
                           counters={"n": 2.0}, gauges={"g": 1.0})
        s2 = ProcessStream(pid=2, role="worker", run_id="r",
                           parent_span_id=None, path="y",
                           counters={"n": 3.0}, gauges={"g": 5.0})
        merged = Timeline(run_id="r", telemetry_dir=".",
                          streams=[s1, s2]).merged_counters()
        assert merged["n"] == 5.0
        assert merged["g"] == 5.0


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
        events = _events(tmp_path / f"run-th.{os.getpid()}.jsonl")
        names = {e["name"] for e in events if e["t"] == "span"}
        assert "numeric.factorize" in names
        assert "numeric.solve" in names
        assert "numeric.supernode" in names   # per-task detail spans


class TestArtifactTelemetrySections:
    def test_v3_roundtrip_with_telemetry_and_profile(self, tmp_path):
        telem = {"run_id": "run-x", "dir": "telemetry",
                 "n_processes": 3,
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
        assert "run run-x (3 process(es))" in text
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

    def test_set_capacity_shrinks_lru_first(self):
        cache = AnalysisCache(capacity=4)
        mats = self._matrices(4)
        analyses = [cache.get_or_analyze(m, "cholesky", "amd")
                    for m in mats]
        cache.set_capacity(1)
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 3
        # The survivor is the most recently used analysis.
        assert cache.get_or_analyze(
            mats[-1], "cholesky", "amd") is analyses[-1]
        assert cache.stats()["hits"] == 1
        with pytest.raises(ValueError):
            cache.set_capacity(0)

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
        streams = list(tel.glob("*.jsonl"))
        assert len(streams) == 1
        loaded = RunArtifact.load(art)
        assert loaded.telemetry["n_processes"] == 1
        lat = loaded.telemetry["latency_ms"]
        assert lat["numeric.factorize"]["count"] == 4
        assert lat["numeric.solve"]["count"] == 4
        assert "latency.numeric.solve.p95_ms" in loaded.metrics
        run_id = loaded.telemetry["run_id"]
        assert (tel / f"{run_id}.trace.json").exists()
        assert (tel / f"{run_id}.report.html").exists()
        assert (tel / f"{run_id}.timeline.json").exists()
        # Detail spans reach the JSONL stream with their attrs and stay
        # out of the artifact.
        supernodes = [e for e in _events(streams[0])
                      if e["t"] == "span"
                      and e["name"] == "numeric.supernode"]
        assert supernodes
        assert all(isinstance(e["attrs"]["sn"], int) for e in supernodes)
        assert all(e["depth"] == 0 and e["parent"] is None
                   for e in supernodes)
        artifact_names = {s["name"] for s in loaded.spans}
        assert "numeric.factorize" in artifact_names
        assert "numeric.supernode" not in artifact_names

    def test_telemetry_collect_and_list_verbs(self, tmp_path, capsys):
        tel = tmp_path / "telemetry"
        assert main(["solve", "suite:bmwcra_1@0.3",
                     "--telemetry-dir", str(tel)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "list", "--dir", str(tel)]) == 0
        out = capsys.readouterr().out
        assert "run-" in out and "stream(s)" in out
        trace = tmp_path / "t.json"
        html = tmp_path / "t.html"
        assert main(["telemetry", "collect", "--dir", str(tel),
                     "--trace", str(trace), "--html", str(html)]) == 0
        out = capsys.readouterr().out
        assert "process stream(s)" in out
        assert trace.exists() and html.exists()
        assert "<html" in html.read_text()

    def test_collect_missing_dir_errors(self, tmp_path, capsys):
        assert main(["telemetry", "collect", "--dir",
                     str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

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
        tel = tmp_path / "telemetry"
        assert main(["verify", "--cases", "4", "--max-n", "12",
                     "--budget", "120", "--jobs", "2",
                     "--telemetry-dir", str(tel),
                     "--out", str(tmp_path / "repros")]) == 0
        capsys.readouterr()
        timeline = collect(tel)
        case_spans = [s for stream in timeline.streams
                      for s in stream.spans
                      if s["name"] == "verify.case"]
        assert len(case_spans) == 4
        assert {s["run"] for s in case_spans} == {timeline.run_id}

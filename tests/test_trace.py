"""Tests for execution tracing."""

import json

import numpy as np
import pytest

from repro.arch.config import SpatulaConfig
from repro.arch.sim import SpatulaSim
from repro.arch.trace import (
    TraceEvent,
    export_chrome_trace,
    render_gantt,
    utilization_timeline,
)
from repro.symbolic import symbolic_factorize
from repro.tasks.plan import build_plan


@pytest.fixture
def traced_sim(spd_medium):
    cfg = SpatulaConfig.tiny()
    symbolic = symbolic_factorize(spd_medium)
    plan = build_plan(symbolic, tile=cfg.tile, supertile=cfg.supertile)
    sim = SpatulaSim(plan, cfg, trace=True)
    report = sim.run()
    return sim, report


class TestTraceCollection:
    def test_one_event_per_task(self, traced_sim):
        sim, report = traced_sim
        assert len(sim.trace) == report.n_tasks

    def test_events_within_horizon(self, traced_sim):
        sim, report = traced_sim
        for event in sim.trace:
            assert 0 <= event.start < event.end <= report.cycles
            assert 0 <= event.pe < report.config.n_pes

    def test_no_overlap_per_pe(self, traced_sim):
        sim, _ = traced_sim
        by_pe = {}
        for e in sim.trace:
            by_pe.setdefault(e.pe, []).append((e.start, e.end))
        for intervals in by_pe.values():
            intervals.sort()
            for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2, "array executed two tasks at once"

    def test_busy_cycles_match_trace(self, traced_sim):
        sim, report = traced_sim
        traced_busy = sum(e.duration for e in sim.trace)
        assert traced_busy == sum(report.busy_cycles_by_type.values())

    def test_disabled_by_default(self, spd_small):
        cfg = SpatulaConfig.tiny()
        symbolic = symbolic_factorize(spd_small)
        plan = build_plan(symbolic, tile=cfg.tile, supertile=cfg.supertile)
        sim = SpatulaSim(plan, cfg)
        sim.run()
        assert sim.trace is None


class TestRenderers:
    def test_gantt_shape(self, traced_sim):
        sim, _ = traced_sim
        text = render_gantt(sim.trace, sim.config.n_pes, width=40)
        lines = text.splitlines()
        assert len(lines) == sim.config.n_pes + 1  # PEs + legend
        assert all("|" in line for line in lines[:-1])

    def test_gantt_empty(self):
        assert "no events" in render_gantt([], 2)

    def test_utilization_bounded(self, traced_sim):
        sim, _ = traced_sim
        util = utilization_timeline(sim.trace, sim.config.n_pes, 20)
        assert util.shape == (20,)
        assert np.all(util >= 0) and np.all(util <= 1.0 + 1e-9)

    def test_utilization_empty_events(self):
        util = utilization_timeline([], 4, n_buckets=10)
        assert util.shape == (10,)
        assert np.all(util == 0.0)

    def test_utilization_single_short_event(self):
        e = TraceEvent(pe=0, start=0, end=1, ttype="dgemm", sn=0,
                       task_index=0)
        util = utilization_timeline([e], n_pes=2, n_buckets=8)
        assert util.shape == (8,)
        # horizon=1 < n_buckets: scale clamps to 1 cycle/bucket; the one
        # busy cycle lands in bucket 0 at 1/n_pes utilization.
        assert util[0] == pytest.approx(0.5)
        assert np.all(util[1:] == 0.0)

    def test_utilization_horizon_below_bucket_count(self):
        events = [
            TraceEvent(pe=0, start=0, end=3, ttype="dgemm", sn=0,
                       task_index=0),
            TraceEvent(pe=1, start=1, end=3, ttype="tsolve", sn=1,
                       task_index=0),
        ]
        util = utilization_timeline(events, n_pes=2, n_buckets=50)
        assert util.shape == (50,)
        assert np.all(util <= 1.0 + 1e-9)
        # total busy cycles preserved despite the tiny horizon
        assert util.sum() * 1 * 2 == pytest.approx(5.0)

    def test_utilization_integral_matches_busy(self, traced_sim):
        sim, report = traced_sim
        n_buckets = 25
        util = utilization_timeline(sim.trace, sim.config.n_pes, n_buckets)
        horizon = max(e.end for e in sim.trace)
        scale = max(1, -(-horizon // n_buckets))
        total = util.sum() * scale * sim.config.n_pes
        assert total == pytest.approx(
            sum(e.duration for e in sim.trace), rel=1e-9
        )

    def test_chrome_export_roundtrip(self, traced_sim, tmp_path):
        sim, _ = traced_sim
        path = tmp_path / "t.json"
        export_chrome_trace(sim.trace, path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == len(sim.trace)
        tids = {e["tid"] for e in data["traceEvents"]}
        assert tids <= set(range(sim.config.n_pes))

    def test_chrome_export_us_conversion(self, tmp_path):
        events = [TraceEvent(pe=0, start=2000, end=6000, ttype="dgemm",
                             sn=0, task_index=0)]
        path = tmp_path / "t.json"
        export_chrome_trace(events, path, freq_ghz=2.0)
        (record,) = json.loads(path.read_text())["traceEvents"]
        assert record["ts"] == pytest.approx(1.0)   # 2000 cy @ 2 GHz = 1 us
        assert record["dur"] == pytest.approx(2.0)
        assert record["cat"] == "dgemm"
        assert record["args"]["supernode"] == 0

    def test_chrome_export_tags_active_telemetry_run(self, tmp_path):
        from repro.obs import telemetry

        events = [TraceEvent(pe=0, start=0, end=10, ttype="dgemm",
                             sn=0, task_index=0)]
        path = tmp_path / "plain.json"
        export_chrome_trace(events, path)
        other = json.loads(path.read_text())["otherData"]
        assert "telemetry_run" not in other

        telemetry.start(tmp_path / "tele", run_id="run-tagged")
        try:
            path = tmp_path / "tagged.json"
            export_chrome_trace(events, path)
            other = json.loads(path.read_text())["otherData"]
            assert other["telemetry_run"] == "run-tagged"
        finally:
            telemetry.stop(dump_registry=False)
        # The tag names the run's one stream.
        assert [p.name for p in (tmp_path / "tele").iterdir()] == [
            "run-tagged.jsonl"]

    def test_chrome_export_with_spans(self, traced_sim, tmp_path):
        from repro.obs import Span

        sim, _ = traced_sim
        spans = [
            Span(name="symbolic.etree", start_s=10.0, duration_s=0.25),
            Span(name="sim.run", start_s=10.5, duration_s=1.0, depth=1,
                 parent="pipeline", peak_mem_bytes=4096),
        ]
        path = tmp_path / "t.json"
        export_chrome_trace(sim.trace, path, spans=spans)
        records = json.loads(path.read_text())["traceEvents"]
        host = [r for r in records if r.get("pid") == 1 and r["ph"] == "X"]
        assert len(host) == 2
        by_name = {r["name"]: r for r in host}
        # wall-clock times rebased so the earliest span starts at ts=0
        assert by_name["symbolic.etree"]["ts"] == pytest.approx(0.0)
        assert by_name["sim.run"]["ts"] == pytest.approx(0.5e6)
        assert by_name["sim.run"]["dur"] == pytest.approx(1e6)
        assert by_name["sim.run"]["tid"] == 1
        assert by_name["sim.run"]["args"]["peak_mem_bytes"] == 4096
        # both processes get name metadata for the Perfetto view
        meta = [r for r in records if r["ph"] == "M"]
        assert {r["pid"] for r in meta} == {0, 1}
        # PE events still all present under pid 0
        pe_events = [r for r in records
                     if r.get("pid") == 0 and r["ph"] == "X"]
        assert len(pe_events) == len(sim.trace)

    def test_chrome_export_span_nesting_depth_preserved(self, tmp_path):
        """Host-span nesting depth must survive the export as the tid of
        process 1, and PE events must stay on process 0 keyed by PE."""
        from repro.obs import Span

        events = [
            TraceEvent(pe=0, start=0, end=10, ttype="dgemm", sn=0,
                       task_index=0),
            TraceEvent(pe=3, start=5, end=12, ttype="tsolve", sn=0,
                       task_index=1),
        ]
        spans = [
            Span(name="pipeline", start_s=1.0, duration_s=3.0),
            Span(name="pipeline.symbolic", start_s=1.1, duration_s=1.0,
                 depth=1, parent="pipeline"),
            Span(name="pipeline.symbolic.etree", start_s=1.2,
                 duration_s=0.5, depth=2, parent="pipeline.symbolic"),
        ]
        path = tmp_path / "t.json"
        export_chrome_trace(events, path, spans=spans)
        records = json.loads(path.read_text())["traceEvents"]
        pe = {r["name"]: r for r in records
              if r.get("pid") == 0 and r["ph"] == "X"}
        host = {r["name"]: r for r in records
                if r.get("pid") == 1 and r["ph"] == "X"}
        assert len(pe) == 2 and len(host) == 3
        assert pe["dgemm S0#0"]["tid"] == 0
        assert pe["tsolve S0#1"]["tid"] == 3
        assert host["pipeline"]["tid"] == 0
        assert host["pipeline.symbolic"]["tid"] == 1
        assert host["pipeline.symbolic.etree"]["tid"] == 2
        assert host["pipeline.symbolic.etree"]["args"]["parent"] == \
            "pipeline.symbolic"

    def test_trace_event_duration(self):
        e = TraceEvent(pe=0, start=10, end=25, ttype="dgemm", sn=1,
                       task_index=2)
        assert e.duration == 15

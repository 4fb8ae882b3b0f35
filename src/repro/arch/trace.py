"""Execution tracing: per-task timelines from a simulation run.

Pass ``trace=True`` to :class:`~repro.arch.sim.SpatulaSim` (or
``simulate``) and the engine records one :class:`TraceEvent` per executed
task.  The trace can be rendered as an ASCII Gantt chart for quick
inspection, summarized into a utilization timeline, or exported in the
Chrome trace-event JSON format (open in ``chrome://tracing`` or Perfetto).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class TraceEvent:
    """One task execution on one PE."""

    pe: int
    start: int
    end: int
    ttype: str
    sn: int
    task_index: int
    # Gap-attribution timestamps (-1 when the producer predates them):
    # the cycle the dispatcher placed the task in its PE slot, and the
    # cycle its leading operands had arrived.  The idle gap before
    # ``start`` splits at these boundaries into dependency/scheduler wait
    # (before dispatch) and exposed memory wait (dispatch -> op_ready).
    dispatch: int = -1
    op_ready: int = -1

    @property
    def duration(self) -> int:
        return self.end - self.start


_GANTT_GLYPH = {
    "dgemm": "#",
    "tsolve": "t",
    "dchol": "C",
    "dlu": "U",
    "gather_updates": "g",
}


def render_gantt(events: list[TraceEvent], n_pes: int,
                 width: int = 100) -> str:
    """ASCII Gantt chart: one row per PE, one glyph per time bucket.

    Glyphs: ``#`` dgemm, ``t`` tsolve, ``C`` dchol, ``U`` dlu,
    ``g`` gather, ``.`` idle.  When several tasks share a bucket the
    longest-running type wins.
    """
    if not events:
        return "(no events)"
    horizon = max(e.end for e in events)
    scale = max(1, -(-horizon // width))
    rows = []
    for pe in range(n_pes):
        buckets = [dict() for _ in range(width)]
        for e in events:
            if e.pe != pe:
                continue
            first = e.start // scale
            last = min(width - 1, max(first, (e.end - 1) // scale))
            for b in range(first, last + 1):
                lo = max(e.start, b * scale)
                hi = min(e.end, (b + 1) * scale)
                buckets[b][e.ttype] = buckets[b].get(e.ttype, 0) + hi - lo
        line = "".join(
            _GANTT_GLYPH.get(max(b, key=b.get), "?") if b else "."
            for b in buckets
        )
        rows.append(f"PE{pe:>3} |{line}|")
    legend = "  ".join(f"{g}={t}" for t, g in _GANTT_GLYPH.items())
    return "\n".join(rows) + f"\n       ({scale} cycles/char; {legend})"


def utilization_timeline(events: list[TraceEvent], n_pes: int,
                         n_buckets: int = 50) -> np.ndarray:
    """Fraction of PE-cycles busy per time bucket (machine utilization
    over time — shows ramp-up, steady state, and the root-supernode
    tail)."""
    if not events:
        return np.zeros(n_buckets)
    horizon = max(e.end for e in events)
    scale = max(1, -(-horizon // n_buckets))
    busy = np.zeros(n_buckets)
    for e in events:
        first = e.start // scale
        last = min(n_buckets - 1, max(first, (e.end - 1) // scale))
        for b in range(first, last + 1):
            lo = max(e.start, b * scale)
            hi = min(e.end, (b + 1) * scale)
            busy[b] += hi - lo
    return busy / (scale * n_pes)


def export_chrome_trace(events: list[TraceEvent], path: str | Path,
                        freq_ghz: float = 1.0, spans=None) -> None:
    """Write the trace in Chrome trace-event JSON format.

    Each PE becomes a "thread" of process 0; durations are reported in
    microseconds of simulated time (cycles / frequency).

    Args:
        events: PE task events recorded by ``SpatulaSim(..., trace=True)``.
        path: output file (open in chrome://tracing or Perfetto).
        freq_ghz: clock frequency used for the cycles -> us conversion.
        spans: optional host-side pipeline spans
            (:class:`repro.obs.Span` objects or their dicts); they are
            emitted as process 1 ("host pipeline") in wall-clock
            microseconds rebased so the earliest span starts at 0, letting
            one Perfetto view hold host phases next to simulated cycles.
            (The two processes share a timeline but not a time base.)
    """
    records = []
    for e in events:
        records.append({
            "name": f"{e.ttype} S{e.sn}#{e.task_index}",
            "cat": e.ttype,
            "ph": "X",
            "ts": e.start / (freq_ghz * 1e3),   # cycles -> us
            "dur": max(e.duration, 1) / (freq_ghz * 1e3),
            "pid": 0,
            "tid": e.pe,
            "args": {"supernode": e.sn, "task": e.task_index},
        })
    span_dicts = [s if isinstance(s, dict) else s.to_dict()
                  for s in (spans or [])]
    if span_dicts:
        records.append({"name": "process_name", "ph": "M", "pid": 0,
                        "args": {"name": "Spatula PEs (simulated time)"}})
        records.append({"name": "process_name", "ph": "M", "pid": 1,
                        "args": {"name": "host pipeline (wall clock)"}})
        t0 = min(s["start_s"] for s in span_dicts)
        for s in span_dicts:
            args = {"parent": s.get("parent")}
            if s.get("peak_mem_bytes") is not None:
                args["peak_mem_bytes"] = s["peak_mem_bytes"]
            records.append({
                "name": s["name"],
                "cat": "host",
                "ph": "X",
                "ts": (s["start_s"] - t0) * 1e6,      # seconds -> us
                "dur": max(s["duration_s"] * 1e6, 0.001),
                "pid": 1,
                "tid": s.get("depth", 0),
                "args": args,
            })
    other = {"source": "repro (Spatula reproduction)"}
    # Cross-reference the wall-clock telemetry run (if one is recording)
    # so a simulated-cycle trace can be matched to the telemetry
    # stream/trace of the `repro simulate --telemetry-dir` invocation
    # that produced it.
    from repro.obs import telemetry
    context = telemetry.current_context()
    if context is not None:
        other["telemetry_run"] = context.run_id
    payload = {
        "traceEvents": records,
        "displayTimeUnit": "ns",
        "otherData": other,
    }
    with open(path, "w") as f:
        json.dump(payload, f)

"""Run-scoped runtime telemetry: one process, one JSONL event stream.

The in-process tracer and metrics registry explain *simulated* cycles;
this module records *wall-clock* time.  It has three parts:

**Run context** (:class:`RunContext`): a run id plus the parent span id
of the command that started the run.  :func:`start` opens telemetry in
the current process; :func:`stop` closes it.

**Sink** (:class:`TelemetrySink`): one line-buffered JSONL file,
``<run_id>.jsonl``, so a crashed process loses at most its final partial
line.  Event types: ``meta`` (sink open: pid, wall/perf clock pair),
``span`` (mirrored from the global tracer, detail spans included),
``counters`` (a registry snapshot, dumped at shutdown), ``log`` (records
from the ``repro`` logger), and ``hb`` (periodic heartbeats with RSS).
Work that runs in other processes — ``verify --jobs`` pool workers —
hands its results back to the process that owns the sink, which records
them; a forked worker calls :func:`detach` first so it never writes into
the parent's open file.

**Reader** (:func:`read_stream`): loads a finished stream back for the
per-phase wall-clock latency percentiles (:func:`latency_summary`, the
``latency.*`` watched metrics via :func:`export_latency_metrics`) and the
Chrome trace (:func:`chrome_trace`, one lane per thread).

Everything here is disabled by default.  While telemetry is off the
tracer carries no listener, so ``span(..., detail=True)`` returns the
shared no-op context manager — the instrumented code paths cost one
call.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs.live import summarize
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, global_registry
from repro.obs.spans import Span, enable_tracing, get_tracer

logger = logging.getLogger(__name__)

#: Default heartbeat period (seconds); tests pass much smaller values.
DEFAULT_HEARTBEAT_S = 5.0


def new_run_id() -> str:
    """Unique, sortable run id: ``run-YYYYmmdd-HHMMSS-xxxxxx``."""
    return (f"run-{time.strftime('%Y%m%d-%H%M%S')}-"
            f"{uuid.uuid4().hex[:6]}")


@dataclass(frozen=True)
class RunContext:
    """Identity of one telemetry run."""

    run_id: str
    telemetry_dir: str
    parent_span_id: str | None = None

    @property
    def stream_path(self) -> Path:
        return Path(self.telemetry_dir) / f"{self.run_id}.jsonl"


def _rss_bytes() -> int | None:
    try:
        import resource
    except ImportError:            # no resource module on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, KiB on Linux and the BSDs.
    return int(peak) * (1 if sys.platform == "darwin" else 1024)


class TelemetrySink:
    """Crash-safe JSONL event writer.

    The file is opened in append mode with line buffering and every
    event is one ``json.dumps`` line, so concurrent threads interleave
    whole lines (serialized by a lock) and an abrupt process death
    loses at most the final partial line.
    """

    def __init__(self, context: RunContext) -> None:
        self.context = context
        self.path = context.stream_path
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._f = open(self.path, "a", buffering=1)
        self.emit("meta", tid=threading.get_ident(),
                  parent=context.parent_span_id,
                  wall=time.time(), perf=time.perf_counter())

    def emit(self, kind: str, **fields) -> None:
        """Write one event line.  ``pid`` is read per event, so a line
        names the process that actually wrote it."""
        event = {"t": kind, "run": self.context.run_id,
                 "pid": os.getpid(), **fields}
        line = json.dumps(event, default=str)
        with self._lock:
            if not self._f.closed:
                self._f.write(line + "\n")

    # -- typed events --------------------------------------------------------

    def span(self, span: Span) -> None:
        fields = {"tid": threading.get_ident(), "name": span.name,
                  "start": span.start_s, "dur": span.duration_s,
                  "depth": span.depth, "parent": span.parent}
        if span.peak_mem_bytes is not None:
            fields["peak_mem_bytes"] = span.peak_mem_bytes
        if span.attrs:
            fields["attrs"] = span.attrs
        self.emit("span", **fields)

    def counters(self, registry: MetricsRegistry) -> None:
        """Dump a registry snapshot, counters and gauges split by kind."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        for name in registry.names():
            inst = registry.get(name)
            if isinstance(inst, Counter):
                counters[name] = inst.value
            elif isinstance(inst, Gauge):
                gauges[name] = inst.value
        self.emit("counters", counters=counters, gauges=gauges)

    def log(self, record: logging.LogRecord) -> None:
        self.emit("log", wall=record.created, level=record.levelname,
                  logger=record.name, msg=record.getMessage())

    def heartbeat(self) -> None:
        self.emit("hb", wall=time.time(), rss_bytes=_rss_bytes())

    def close(self) -> None:
        with self._lock:
            if not self._f.closed:
                self._f.close()


class _SinkLogHandler(logging.Handler):
    def __init__(self, sink: TelemetrySink) -> None:
        super().__init__(level=logging.INFO)
        self._sink = sink

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self._sink.log(record)
        except Exception:      # never let telemetry break the pipeline
            pass


class _State:
    """Module-level telemetry state for this process."""

    def __init__(self) -> None:
        self.sink: TelemetrySink | None = None
        self.context: RunContext | None = None
        self.log_handler: _SinkLogHandler | None = None
        self.heartbeat_stop: threading.Event | None = None
        self.heartbeat_thread: threading.Thread | None = None


_STATE = _State()


def active() -> bool:
    """True when this process has an open telemetry sink."""
    return _STATE.sink is not None


def current_context() -> RunContext | None:
    return _STATE.context


def current_sink() -> TelemetrySink | None:
    return _STATE.sink


def _on_tracer_span(span: Span) -> None:
    sink = _STATE.sink
    if sink is not None:
        sink.span(span)


def start(telemetry_dir: str | Path, run_id: str | None = None,
          parent_span_id: str | None = None,
          heartbeat_s: float | None = DEFAULT_HEARTBEAT_S) -> RunContext:
    """Open telemetry for this process; returns the run context.

    Enables the global tracer with a listener that mirrors every
    completed span into the sink, and captures ``repro`` log records.
    Idempotent: a second ``start`` while active returns the existing
    context.
    """
    if _STATE.sink is not None:
        return _STATE.context
    context = RunContext(
        run_id=run_id or new_run_id(),
        telemetry_dir=str(telemetry_dir),
        parent_span_id=parent_span_id,
    )
    sink = TelemetrySink(context)
    _STATE.sink = sink
    _STATE.context = context
    enable_tracing()
    get_tracer().add_listener(_on_tracer_span)
    handler = _SinkLogHandler(sink)
    logging.getLogger("repro").addHandler(handler)
    _STATE.log_handler = handler
    if heartbeat_s is not None and heartbeat_s > 0:
        stop_event = threading.Event()

        def beat() -> None:
            while not stop_event.wait(heartbeat_s):
                sink.heartbeat()

        thread = threading.Thread(target=beat, name="repro-telemetry-hb",
                                  daemon=True)
        thread.start()
        _STATE.heartbeat_stop = stop_event
        _STATE.heartbeat_thread = thread
    logger.info("telemetry started: run %s (pid %d)",
                context.run_id, os.getpid())
    return context


def stop(dump_registry: bool = True) -> None:
    """Close telemetry for this process (no-op when inactive).

    Writes a final heartbeat plus a global-registry snapshot, then
    detaches the tracer listener and log handler.
    """
    sink = _STATE.sink
    if sink is None:
        return
    if _STATE.heartbeat_stop is not None:
        _STATE.heartbeat_stop.set()
        _STATE.heartbeat_thread.join(timeout=1.0)
    sink.heartbeat()
    if dump_registry:
        sink.counters(global_registry())
    detach()
    sink.close()


def detach() -> None:
    """Forget this process's telemetry state without writing anything.

    :func:`stop` ends with it.  A forked pool worker calls it first: the
    sink, log handler and tracer listener it inherited all point at the
    parent's open stream, which only the parent may write or close.
    """
    global _STATE
    get_tracer().remove_listener(_on_tracer_span)
    if _STATE.log_handler is not None:
        logging.getLogger("repro").removeHandler(_STATE.log_handler)
    _STATE = _State()


# -- reader -------------------------------------------------------------------


def read_stream(path: str | Path) -> list[dict]:
    """Every event of one stream, in write order.

    A crash-truncated final line is skipped, not fatal.
    """
    events = []
    with open(path) as f:
        for line in f:
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return events


def latency_percentiles(durations_by_name: dict[str, list[float]]
                        ) -> dict[str, dict[str, float]]:
    """Per-phase wall-clock latency summary in milliseconds."""
    return {
        name: summarize(np.asarray(durations) * 1e3, "_ms")
        for name, durations in sorted(durations_by_name.items())
        if durations
    }


def latency_summary(events: list[dict]) -> dict[str, dict[str, float]]:
    """:func:`latency_percentiles` of every span name in a stream."""
    durations: dict[str, list[float]] = {}
    for event in events:
        if event["t"] == "span":
            durations.setdefault(event["name"], []).append(event["dur"])
    return latency_percentiles(durations)


def export_latency_metrics(summary: dict[str, dict[str, float]],
                           registry: MetricsRegistry | None = None) -> None:
    """Export per-phase percentiles as ``latency.<phase>.pXX_ms`` gauges
    (the watched wall-clock metrics of ``repro report --diff``)."""
    registry = registry if registry is not None else global_registry()
    for name, stats in summary.items():
        for stat in ("p50_ms", "p95_ms", "p99_ms"):
            registry.gauge(f"latency.{name}.{stat}").set(stats[stat])


def chrome_trace(events: list[dict], path: str | Path) -> None:
    """Write a stream as Chrome trace-event JSON (load into Perfetto).

    One thread lane per thread that completed a span (lane 0 is the
    thread that opened the sink), in microseconds since the sink
    opened.  Heartbeats and log records become instant events.
    """
    meta = events[0]
    pid, run_id = meta["pid"], meta["run"]
    lanes = {meta["tid"]: 0}
    records = [
        {"name": "process_name", "ph": "M", "pid": pid,
         "args": {"name": f"pid {pid} [{run_id}]"}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "main thread"}},
    ]
    for e in events:
        kind = e["t"]
        if kind == "span":
            lane = lanes.get(e["tid"])
            if lane is None:
                lane = lanes[e["tid"]] = len(lanes)
                records.append({
                    "name": "thread_name", "ph": "M", "pid": pid,
                    "tid": lane, "args": {"name": f"worker-{lane}"},
                })
            records.append({
                "name": e["name"], "cat": "telemetry", "ph": "X",
                "ts": (e["start"] - meta["perf"]) * 1e6,
                "dur": max(e["dur"] * 1e6, 0.001),
                "pid": pid, "tid": lane,
                "args": {"run": run_id, "parent": e.get("parent"),
                         **(e.get("attrs") or {})},
            })
        elif kind == "hb":
            records.append({
                "name": "heartbeat", "cat": "telemetry", "ph": "i",
                "s": "p", "ts": (e["wall"] - meta["wall"]) * 1e6,
                "pid": pid, "tid": 0,
                "args": {"rss_bytes": e.get("rss_bytes")},
            })
        elif kind == "log":
            records.append({
                "name": f"log:{e['level']}", "cat": "telemetry",
                "ph": "i", "s": "t",
                "ts": (e["wall"] - meta["wall"]) * 1e6,
                "pid": pid, "tid": 0, "args": {"msg": e["msg"]},
            })
    payload = {
        "traceEvents": records,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro telemetry", "run_id": run_id},
    }
    with open(path, "w") as f:
        json.dump(payload, f)

"""Run-scoped runtime telemetry: cross-process event streams + collector.

The in-process tracer and metrics registry (PRs 1/4) explain *simulated*
cycles; this module covers *wall-clock* time across *processes* — the
regime of the solve server and process-parallel scheduling work.  It has
three parts:

**Run context** (:class:`RunContext`): a run id plus the parent span id
of the command that started the run.  :func:`start` opens telemetry in
the current process and publishes the context through environment
variables (``REPRO_TELEMETRY_DIR`` / ``_RUN`` / ``_PARENT``), so worker
processes — however they are spawned — can join the run by calling
:func:`init_worker` from a ``multiprocessing`` pool initializer.  Every
event a worker emits carries the parent run id.

**Per-process sink** (:class:`TelemetrySink`): one line-buffered JSONL
file per process (``<run_id>.<pid>.jsonl``), so a crashed worker loses at
most its final partial line.  Event types: ``meta`` (process start: pid,
role, wall/perf clock pair for alignment), ``span`` (mirrored from the
global tracer, detail spans included), ``counters`` (a registry
snapshot, dumped at shutdown), ``log`` (records from the ``repro``
logger), and ``hb`` (periodic heartbeats with RSS).

**Collector** (:func:`collect` → :class:`Timeline`): merges the
per-process streams of one run into a single clock-aligned timeline.
Each stream's ``meta`` event pairs ``time.time()`` with
``time.perf_counter()`` at sink-open; span timestamps are perf-counter
based and are rebased onto the shared wall clock, so spans from
different processes line up on one axis.  The timeline exports to the
Chrome trace-event format (one Perfetto process lane per OS process, one
thread lane per worker thread) and to the HTML report
(:func:`repro.obs.html.write_timeline_report`), and computes per-phase
wall-clock latency percentiles (p50/p95/p99) that feed the
``latency.*`` watched metrics.

Everything here is disabled by default.  While telemetry is off the
tracer carries no listener, so ``span(..., detail=True)`` returns the
shared no-op context manager — the instrumented code paths cost one
call.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs.live import summarize
from repro.obs.metrics import Counter, Gauge, MetricsRegistry, global_registry
from repro.obs.spans import Span, enable_tracing, get_tracer

logger = logging.getLogger(__name__)

#: Environment handshake: set by :func:`start` in the main process, read
#: by :func:`init_worker` in children (works for fork *and* spawn).
ENV_DIR = "REPRO_TELEMETRY_DIR"
ENV_RUN = "REPRO_TELEMETRY_RUN"
ENV_PARENT = "REPRO_TELEMETRY_PARENT"

#: Default heartbeat period (seconds); tests pass much smaller values.
DEFAULT_HEARTBEAT_S = 5.0


def new_run_id() -> str:
    """Unique, sortable run id: ``run-YYYYmmdd-HHMMSS-xxxxxx``."""
    return (f"run-{time.strftime('%Y%m%d-%H%M%S')}-"
            f"{uuid.uuid4().hex[:6]}")


@dataclass(frozen=True)
class RunContext:
    """Identity of one telemetry run, as seen by one process."""

    run_id: str
    telemetry_dir: str
    parent_span_id: str | None = None
    role: str = "main"            # "main" | "worker"

    def env(self) -> dict[str, str]:
        """The environment-variable form of this context."""
        env = {ENV_DIR: self.telemetry_dir, ENV_RUN: self.run_id}
        if self.parent_span_id:
            env[ENV_PARENT] = self.parent_span_id
        return env


def _rss_bytes() -> int | None:
    try:
        import resource

        # ru_maxrss is KiB on Linux, bytes on macOS.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak) * (1 if peak > 1 << 32 else 1024)
    except Exception:
        return None


class TelemetrySink:
    """Crash-safe per-process JSONL event writer.

    The file is opened in append mode with line buffering and every
    event is one ``json.dumps`` line, so concurrent threads interleave
    whole lines (serialized by a lock) and an abrupt process death
    loses at most the final partial line.
    """

    def __init__(self, context: RunContext) -> None:
        self.context = context
        self.pid = os.getpid()
        root = Path(context.telemetry_dir)
        root.mkdir(parents=True, exist_ok=True)
        self.path = root / f"{context.run_id}.{self.pid}.jsonl"
        self._lock = threading.Lock()
        self._f = open(self.path, "a", buffering=1)
        self.wall0 = time.time()
        self.perf0 = time.perf_counter()
        self.emit({
            "t": "meta", "run": context.run_id, "pid": self.pid,
            "tid": threading.get_ident(), "role": context.role,
            "parent": context.parent_span_id,
            "wall": self.wall0, "perf": self.perf0,
        })

    def emit(self, event: dict) -> None:
        line = json.dumps(event, default=str)
        with self._lock:
            if not self._f.closed:
                self._f.write(line + "\n")

    # -- typed events --------------------------------------------------------

    def span(self, span: Span) -> None:
        event = {
            "t": "span", "run": self.context.run_id, "pid": self.pid,
            "tid": threading.get_ident(),
            "name": span.name, "start": span.start_s,
            "dur": span.duration_s, "depth": span.depth,
            "parent": span.parent,
        }
        if span.peak_mem_bytes is not None:
            event["peak_mem_bytes"] = span.peak_mem_bytes
        if span.attrs:
            event["attrs"] = span.attrs
        self.emit(event)

    def counters(self, registry: MetricsRegistry) -> None:
        """Dump a registry snapshot (counters/gauges split by kind, so
        the collector knows to sum the former and keep the latter)."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        for name in registry.names():
            inst = registry.get(name)
            if isinstance(inst, Counter):
                counters[name] = inst.value
            elif isinstance(inst, Gauge):
                gauges[name] = inst.value
        self.emit({"t": "counters", "run": self.context.run_id,
                   "pid": self.pid, "counters": counters,
                   "gauges": gauges})

    def log(self, record: logging.LogRecord) -> None:
        self.emit({
            "t": "log", "run": self.context.run_id, "pid": self.pid,
            "wall": record.created, "level": record.levelname,
            "logger": record.name, "msg": record.getMessage(),
        })

    def heartbeat(self) -> None:
        event = {"t": "hb", "run": self.context.run_id, "pid": self.pid,
                 "wall": time.time()}
        rss = _rss_bytes()
        if rss is not None:
            event["rss_bytes"] = rss
        self.emit(event)

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
        self.owns_env = False


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
          parent_span_id: str | None = None, role: str = "main",
          heartbeat_s: float | None = DEFAULT_HEARTBEAT_S) -> RunContext:
    """Open telemetry for this process; returns the run context.

    In the main role this also publishes the context into ``os.environ``
    so any child process (fork or spawn) can join via
    :func:`init_worker`, and enables the global tracer with a listener
    that mirrors every completed span into the sink.

    Idempotent per process: a second ``start`` while active returns the
    existing context.
    """
    if _STATE.sink is not None:
        return _STATE.context
    context = RunContext(
        run_id=run_id or new_run_id(),
        telemetry_dir=str(telemetry_dir),
        parent_span_id=parent_span_id,
        role=role,
    )
    sink = TelemetrySink(context)
    _STATE.sink = sink
    _STATE.context = context
    if role == "main":
        os.environ.update(context.env())
        _STATE.owns_env = True
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
    logger.info("telemetry started: run %s (%s, pid %d)",
                context.run_id, role, os.getpid())
    return context


def stop(dump_registry: bool = True) -> None:
    """Close telemetry for this process (no-op when inactive).

    Dumps a final heartbeat plus a global-registry snapshot (so worker
    counters survive into the collected timeline), detaches the tracer
    listener and log handler, and clears the environment handshake when
    this process published it.
    """
    sink = _STATE.sink
    if sink is None:
        return
    if _STATE.heartbeat_stop is not None:
        _STATE.heartbeat_stop.set()
        _STATE.heartbeat_thread.join(timeout=1.0)
        _STATE.heartbeat_stop = None
        _STATE.heartbeat_thread = None
    get_tracer().remove_listener(_on_tracer_span)
    if _STATE.log_handler is not None:
        logging.getLogger("repro").removeHandler(_STATE.log_handler)
        _STATE.log_handler = None
    sink.heartbeat()
    if dump_registry:
        sink.counters(global_registry())
    sink.close()
    if _STATE.owns_env:
        for key in (ENV_DIR, ENV_RUN, ENV_PARENT):
            os.environ.pop(key, None)
        _STATE.owns_env = False
    _STATE.sink = None
    _STATE.context = None


def init_worker() -> RunContext | None:
    """Join the run published in the environment (pool initializer).

    Call as ``multiprocessing.Pool(n, initializer=telemetry.init_worker)``
    — under *fork* the child inherits the parent's module state, so any
    inherited sink reference is discarded first and a fresh per-pid sink
    is opened; under *spawn* the environment variables carry the
    context.  Returns ``None`` (and stays inactive) when no run is
    published.
    """
    dir_ = os.environ.get(ENV_DIR)
    run = os.environ.get(ENV_RUN)
    if not dir_ or not run:
        return None
    # Forked children inherit _STATE pointing at the parent's sink (and
    # its fd); drop the reference without closing the shared file.
    _STATE.sink = None
    _STATE.context = None
    _STATE.log_handler = None
    _STATE.heartbeat_stop = None
    _STATE.heartbeat_thread = None
    _STATE.owns_env = False
    get_tracer().remove_listener(_on_tracer_span)
    get_tracer().reset()
    context = start(
        dir_, run_id=run, parent_span_id=os.environ.get(ENV_PARENT),
        role="worker",
    )
    import atexit

    atexit.register(stop)
    return context


# -- collector ----------------------------------------------------------------


@dataclass
class ProcessStream:
    """All events of one process in one run, clock-aligned."""

    pid: int
    role: str
    run_id: str
    parent_span_id: str | None
    path: str
    wall0: float = 0.0
    perf0: float = 0.0
    main_tid: int = 0
    spans: list[dict] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    logs: list[dict] = field(default_factory=list)
    heartbeats: list[dict] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.role} pid {self.pid}"

    def wall_time(self, perf_s: float) -> float:
        """Rebase a perf_counter timestamp onto the shared wall clock."""
        return self.wall0 + (perf_s - self.perf0)

    @property
    def last_heartbeat_wall(self) -> float | None:
        if not self.heartbeats:
            return None
        return max(h["wall"] for h in self.heartbeats)


@dataclass
class Timeline:
    """The merged, clock-aligned view of one run across processes."""

    run_id: str
    telemetry_dir: str
    streams: list[ProcessStream] = field(default_factory=list)

    @property
    def t0(self) -> float:
        """Wall-clock origin: the earliest sink-open across processes."""
        return min((s.wall0 for s in self.streams), default=0.0)

    def spans(self) -> list[dict]:
        """Every span of every process, with ``pid``/``tid`` and a
        run-relative ``wall_start_s``, ordered by start time."""
        out = []
        t0 = self.t0
        for stream in self.streams:
            for s in stream.spans:
                rec = dict(s)
                rec["pid"] = stream.pid
                rec["role"] = stream.role
                rec["wall_start_s"] = stream.wall_time(s["start"]) - t0
                out.append(rec)
        out.sort(key=lambda r: r["wall_start_s"])
        return out

    def lanes(self) -> list[tuple[int, int]]:
        """Distinct (pid, tid) pairs in first-appearance order."""
        seen: dict[tuple[int, int], None] = {}
        for s in self.spans():
            seen.setdefault((s["pid"], s.get("tid", 0)), None)
        return list(seen)

    def durations_by_phase(self) -> dict[str, list[float]]:
        """Span name -> list of wall-clock durations (seconds)."""
        by_name: dict[str, list[float]] = {}
        for stream in self.streams:
            for s in stream.spans:
                by_name.setdefault(s["name"], []).append(s["dur"])
        return by_name

    def latency_summary(self) -> dict[str, dict[str, float]]:
        return latency_percentiles(self.durations_by_phase())

    def merged_counters(self) -> dict[str, float]:
        """Counters summed across processes; gauges last-writer-wins."""
        merged: dict[str, float] = {}
        for stream in self.streams:
            for name, value in stream.counters.items():
                merged[name] = merged.get(name, 0.0) + value
        for stream in self.streams:
            for name, value in stream.gauges.items():
                merged[name] = value
        return merged

    def logs(self) -> list[dict]:
        out = []
        for stream in self.streams:
            for rec in stream.logs:
                entry = dict(rec)
                entry["pid"] = stream.pid
                out.append(entry)
        out.sort(key=lambda r: r.get("wall", 0.0))
        return out

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "telemetry_dir": self.telemetry_dir,
            "processes": [
                {"pid": s.pid, "role": s.role, "path": s.path,
                 "parent_span_id": s.parent_span_id,
                 "wall0": s.wall0, "n_spans": len(s.spans),
                 "n_heartbeats": len(s.heartbeats),
                 "last_heartbeat_wall": s.last_heartbeat_wall}
                for s in self.streams
            ],
            "latency_ms": self.latency_summary(),
            "counters": self.merged_counters(),
            "n_spans": sum(len(s.spans) for s in self.streams),
        }


def latency_percentiles(durations_by_name: dict[str, list[float]]
                        ) -> dict[str, dict[str, float]]:
    """Per-phase wall-clock latency summary in milliseconds."""
    return {
        name: summarize(np.asarray(durations) * 1e3, "_ms")
        for name, durations in sorted(durations_by_name.items())
        if durations
    }


def export_latency_metrics(summary: dict[str, dict[str, float]],
                           registry: MetricsRegistry | None = None,
                           phases: tuple[str, ...] | None = None) -> None:
    """Export per-phase percentiles as ``latency.<phase>.pXX_ms`` gauges
    (the watched wall-clock metrics of ``repro report --diff``)."""
    registry = registry if registry is not None else global_registry()
    for name, stats in summary.items():
        if phases is not None and name not in phases:
            continue
        for stat in ("p50_ms", "p95_ms", "p99_ms"):
            registry.gauge(f"latency.{name}.{stat}").set(stats[stat])


def list_runs(telemetry_dir: str | Path) -> list[str]:
    """Run ids with at least one stream in ``telemetry_dir``, oldest
    first (ids embed their start timestamp, so sorting is chronology)."""
    root = Path(telemetry_dir)
    if not root.is_dir():
        return []
    runs = {p.name.rsplit(".", 2)[0] for p in root.glob("*.jsonl")
            if len(p.name.split(".")) >= 3}
    return sorted(runs)


def collect(telemetry_dir: str | Path,
            run_id: str | None = None) -> Timeline:
    """Merge the per-process JSONL streams of one run into a timeline.

    Args:
        telemetry_dir: directory the sinks wrote into.
        run_id: which run to collect; defaults to the latest one.

    Truncated trailing lines (a crashed writer) are skipped, not fatal.
    """
    root = Path(telemetry_dir)
    if run_id is None:
        runs = list_runs(root)
        if not runs:
            raise FileNotFoundError(
                f"no telemetry streams under {root}")
        run_id = runs[-1]
    timeline = Timeline(run_id=run_id, telemetry_dir=str(root))
    for path in sorted(root.glob(f"{run_id}.*.jsonl")):
        stream: ProcessStream | None = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue       # crash-truncated final line
                kind = event.get("t")
                if kind == "meta":
                    stream = ProcessStream(
                        pid=event["pid"], role=event.get("role", "main"),
                        run_id=event["run"],
                        parent_span_id=event.get("parent"),
                        path=str(path), wall0=event["wall"],
                        perf0=event["perf"],
                        main_tid=event.get("tid", 0),
                    )
                elif stream is None:
                    continue       # never saw the meta line
                elif kind == "span":
                    stream.spans.append(event)
                elif kind == "counters":
                    for k, v in event.get("counters", {}).items():
                        stream.counters[k] = (
                            stream.counters.get(k, 0.0) + v)
                    stream.gauges.update(event.get("gauges", {}))
                elif kind == "log":
                    stream.logs.append(event)
                elif kind == "hb":
                    stream.heartbeats.append(event)
        if stream is not None:
            timeline.streams.append(stream)
    if not timeline.streams:
        raise FileNotFoundError(
            f"no telemetry streams for run {run_id!r} under {root}")
    timeline.streams.sort(key=lambda s: (s.role != "main", s.wall0,
                                         s.pid))
    return timeline


def timeline_chrome_trace(timeline: Timeline, path: str | Path) -> None:
    """Export a merged timeline as Chrome trace-event JSON.

    One trace process per OS process (named with role + pid + run id),
    one trace thread per worker thread, all on the shared wall clock in
    microseconds since the run started.  Heartbeats and log records
    become instant events.
    """
    t0 = timeline.t0
    records: list[dict] = []
    tid_index: dict[tuple[int, int], int] = {}
    for stream in timeline.streams:
        records.append({
            "name": "process_name", "ph": "M", "pid": stream.pid,
            "args": {"name": f"{stream.label} [{timeline.run_id}]"},
        })
        tid_index[(stream.pid, stream.main_tid)] = 0
        records.append({
            "name": "thread_name", "ph": "M", "pid": stream.pid,
            "tid": 0, "args": {"name": "main thread"},
        })
        for s in stream.spans:
            key = (stream.pid, s.get("tid", 0))
            if key not in tid_index:
                lane = len([k for k in tid_index if k[0] == stream.pid])
                tid_index[key] = lane
                records.append({
                    "name": "thread_name", "ph": "M", "pid": stream.pid,
                    "tid": lane, "args": {"name": f"worker-{lane}"},
                })
            records.append({
                "name": s["name"],
                "cat": "telemetry",
                "ph": "X",
                "ts": (stream.wall_time(s["start"]) - t0) * 1e6,
                "dur": max(s["dur"] * 1e6, 0.001),
                "pid": stream.pid,
                "tid": tid_index[key],
                "args": {
                    "run": stream.run_id,
                    "parent": s.get("parent"),
                    **(s.get("attrs") or {}),
                },
            })
        for hb in stream.heartbeats:
            records.append({
                "name": "heartbeat", "cat": "telemetry", "ph": "i",
                "s": "p", "ts": (hb["wall"] - t0) * 1e6,
                "pid": stream.pid, "tid": 0,
                "args": {"rss_bytes": hb.get("rss_bytes")},
            })
        for rec in stream.logs:
            records.append({
                "name": f"log:{rec.get('level', '?')}",
                "cat": "telemetry", "ph": "i", "s": "t",
                "ts": (rec.get("wall", t0) - t0) * 1e6,
                "pid": stream.pid, "tid": 0,
                "args": {"msg": rec.get("msg", "")},
            })
    payload = {
        "traceEvents": records,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro telemetry",
                      "run_id": timeline.run_id},
    }
    with open(path, "w") as f:
        json.dump(payload, f)

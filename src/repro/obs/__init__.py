"""repro.obs — the unified instrumentation layer.

Dependency-free observability primitives used across the whole stack:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges, and log-scale histograms keyed by hierarchical name
  (``sim.cache.hits``, ``noc.port.stall_cycles``, ``hbm.chan3.bytes``);
* :mod:`repro.obs.spans` — the one span tracer (``with
  span("symbolic.etree")``; ``span(..., detail=True, **attrs)`` for
  high-volume spans that reach listeners only) with wall-clock and
  optional :mod:`tracemalloc` peak-memory capture, threaded through
  ordering → symbolic → planning → simulation → solve → baselines;
* :mod:`repro.obs.artifact` — versioned JSON run artifacts
  (config + report + metrics + spans + attribution) with diffing and a
  regression gate (``repro report --diff``);
* :mod:`repro.obs.attribution` — cycle accounting (per-PE bucket
  decomposition of ``sim.cycles`` with what-if estimates) and
  critical-path extraction over the executed trace;
* :mod:`repro.obs.html` — self-contained HTML report
  (``repro report --html``);
* :mod:`repro.obs.telemetry` — run-scoped runtime telemetry: one
  crash-safe JSONL event stream per run (spans, counters, logs,
  heartbeats), read back on exit into wall-clock latency percentiles
  and a Chrome trace (``repro <cmd> --telemetry-dir``);
* :mod:`repro.obs.profile` — opt-in wall-clock profiling (cProfile +
  a sampling signal profiler) with top-function tables and
  self-contained SVG flamegraphs (``--profile``);
* :mod:`repro.obs.log` — stdlib-logging setup behind the CLI's
  ``-v`` / ``--log-level`` flags;
* :mod:`repro.obs.live` — *live* (windowed, memory-bounded) primitives
  for long-lived processes: rolling-window percentile rings, top-K
  slow-event exemplars, sparklines, and Prometheus text rendering —
  the building blocks of the serve layer's ``stats``/``health`` ops
  and ``repro serve-top``.

See ``docs/OBSERVABILITY.md`` for the full guide.
"""

from repro.obs.artifact import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    WATCHED_METRICS,
    DiffResult,
    MetricDelta,
    RunArtifact,
    diff_artifacts,
    render_artifact,
    render_diff,
)
from repro.obs.attribution import (
    BUCKETS,
    CriticalPath,
    CycleAttribution,
    attribute_cycles,
    critical_path,
)
from repro.obs.html import render_html_report, write_html_report
from repro.obs.live import (
    ExemplarRing,
    RollingWindow,
    flatten_stats,
    prometheus_text,
    sparkline,
)
from repro.obs.log import setup_logging, verbosity_to_level
from repro.obs.profile import Profiler, ProfileResult, flamegraph_svg
from repro.obs.telemetry import (
    RunContext,
    TelemetrySink,
    latency_percentiles,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    reset_global_registry,
)
from repro.obs.spans import (
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "global_registry",
    "reset_global_registry",
    "Span",
    "Tracer",
    "span",
    "get_tracer",
    "enable_tracing",
    "disable_tracing",
    "RunArtifact",
    "MetricDelta",
    "DiffResult",
    "diff_artifacts",
    "render_artifact",
    "render_diff",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "WATCHED_METRICS",
    "BUCKETS",
    "CycleAttribution",
    "CriticalPath",
    "attribute_cycles",
    "critical_path",
    "render_html_report",
    "write_html_report",
    "RunContext",
    "TelemetrySink",
    "latency_percentiles",
    "Profiler",
    "ProfileResult",
    "flamegraph_svg",
    "setup_logging",
    "verbosity_to_level",
    "RollingWindow",
    "ExemplarRing",
    "sparkline",
    "flatten_stats",
    "prometheus_text",
]

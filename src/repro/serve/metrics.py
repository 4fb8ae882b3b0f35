"""Canonical ``serve.*`` metrics of the solve server.

``serve.*`` has exactly one producer: the long-lived
:class:`~repro.serve.server.SolveServer`, which exports these gauges
from ``stats(export=True)`` and at shutdown, so ``repro report --diff``
never mixes series measured by different programs under one name:

* ``serve.latency.request.{p50,p95,p99}_ms`` — end-to-end request
  latency (enqueue to response, including queueing and coalescing wait);
* ``serve.throughput.rps`` — completed requests per wall-clock second
  of server uptime;
* ``serve.coalesce.batch_mean`` — mean blocked-panel width per solve
  (1.0 = nothing coalesced);
* ``serve.queue.depth_max`` — high-water pending-request depth;
* ``serve.queue.depth`` — *current* pending-request depth across
  pattern queues (a live level, where ``depth_max`` only ever rises);
* ``serve.uptime_s`` — server uptime at export time.

The latency names are deliberately *one* logical phase ("request"), not
per-op: the diff gate compares like with like across runs that mix
factor/refactorize/solve traffic differently.  The server additionally
records per-phase sub-latencies (``queue_wait``, ``coalesce_wait``,
``solve``) so a slow request decomposes.

Cumulative vs windowed
----------------------

``summary()`` keeps the cumulative schema run artifacts rely on;
:meth:`LatencyRecorder.window_summary` is the *live* view — the same
percentile schema computed over only the samples of the trailing
window, plus throughput.  Windowed values export under
``serve.window.*`` (``serve.window.latency.<phase>.pXX_ms``,
``serve.window.throughput.rps``), which are WATCHED_METRICS of their
own so the diff gate compares live-window behaviour across builds.

Storage is bounded: each phase keeps at most ``ring`` samples in a
:class:`repro.obs.live.RollingWindow` (lifetime count/mean/max stay
exact as scalars).  While a run observes fewer samples than the ring
capacity ``summary()`` is the exact cumulative distribution; a
long-lived server's ``summary()`` gracefully degrades to "the last
``ring`` requests" instead of growing without bound.
"""

from __future__ import annotations

import threading

from repro.obs.live import (
    SUMMARY_STATS,
    RollingWindow,
    flatten_stats,
    prometheus_text,
)
from repro.obs.metrics import MetricsRegistry, global_registry

#: The logical phase end-to-end request latency is reported under.
REQUEST_PHASE = "request"

#: Per-request sub-phases the solve server records (docs/SERVING.md):
#: time queued behind earlier work, time from dequeue to solve start
#: (draining the batch), and the blocked panel solve itself.
SUB_PHASES = ("queue_wait", "coalesce_wait", "solve")

#: Per-phase sample-ring capacity.  Large enough that every test run
#: keeps exact cumulative percentiles; small enough that a week-long
#: server holds a few hundred KiB per phase, total.
DEFAULT_RING = 8192

#: Gauge names `report --diff` watches (see repro.obs.artifact).
LATENCY_GAUGES = tuple(
    f"serve.latency.{REQUEST_PHASE}.{stat}"
    for stat in ("p50_ms", "p95_ms", "p99_ms")
)
THROUGHPUT_GAUGE = "serve.throughput.rps"
BATCH_MEAN_GAUGE = "serve.coalesce.batch_mean"
QUEUE_DEPTH_GAUGE = "serve.queue.depth_max"
QUEUE_DEPTH_CURRENT_GAUGE = "serve.queue.depth"
UPTIME_GAUGE = "serve.uptime_s"
#: Rolling-window SLO gauges (exported by export_window / stats
#: collection points; watched by `report --diff`).
WINDOW_LATENCY_GAUGES = tuple(
    f"serve.window.latency.{REQUEST_PHASE}.{stat}"
    for stat in ("p50_ms", "p95_ms", "p99_ms")
)
WINDOW_THROUGHPUT_GAUGE = "serve.window.throughput.rps"

#: Shared never-written ring backing zero-filled window rows for phases
#: with no observations yet.
_EMPTY_WINDOW = RollingWindow(1)


class LatencyRecorder:
    """Thread-safe, *bounded* per-phase wall-clock latency samples.

    ``summary()`` reuses the telemetry percentile schema
    (count/mean/p50/p95/p99/max in milliseconds) so server stats and
    the ``telemetry.latency_ms`` section of a run artifact read the
    same way;
    ``window_summary()`` is the live windowed counterpart.  See the
    module docstring for the cumulative-vs-windowed contract.
    """

    def __init__(self, ring: int = DEFAULT_RING) -> None:
        self._lock = threading.Lock()
        self._ring = max(1, int(ring))
        self._phases: dict[str, RollingWindow] = {}

    @property
    def ring(self) -> int:
        return self._ring

    def _window(self, phase: str) -> RollingWindow:
        with self._lock:
            win = self._phases.get(phase)
            if win is None:
                win = RollingWindow(self._ring)
                self._phases[phase] = win
            return win

    def observe(self, phase: str, seconds: float) -> None:
        self._window(phase).append(float(seconds))

    def count(self, phase: str = REQUEST_PHASE) -> int:
        """Exact lifetime observation count for ``phase``."""
        with self._lock:
            win = self._phases.get(phase)
        return win.count() if win is not None else 0

    def phases(self) -> list[str]:
        with self._lock:
            return sorted(self._phases)

    @staticmethod
    def _as_ms(snap: dict) -> dict[str, float]:
        return {"count": snap["count"],
                **{f"{stat}_ms": snap[stat] * 1e3
                   for stat in SUMMARY_STATS}}

    def summary(self) -> dict[str, dict[str, float]]:
        """Cumulative per-phase percentiles (ms) over retained samples.

        ``count`` reports the exact lifetime count even after the ring
        wraps; the percentiles then cover the most recent ``ring``
        samples (documented degradation — see module docstring).
        """
        with self._lock:
            phases = dict(self._phases)
        out = {}
        for name, win in sorted(phases.items()):
            if win.count() == 0:
                continue
            stats = self._as_ms(win.snapshot(window_s=None))
            stats["count"] = win.count()
            out[name] = stats
        return out

    def window_summary(self, window_s: float = 60.0,
                       now: float | None = None
                       ) -> dict[str, dict[str, float]]:
        """Per-phase percentiles + throughput over the trailing window.

        Adds ``rate_per_s`` (completions per second inside the window)
        to the ms-schema of :meth:`summary`.  Phases with no sample in
        the window report zeroed stats rather than disappearing, so a
        dashboard's layout is stable across idle periods.
        """
        with self._lock:
            phases = dict(self._phases)
        # The known phases always appear (zeroed when idle) so a
        # dashboard's layout is stable from the very first poll.
        for name in (REQUEST_PHASE, *SUB_PHASES):
            phases.setdefault(name, _EMPTY_WINDOW)
        out = {}
        for name, win in sorted(phases.items()):
            snap = win.snapshot(window_s=window_s, now=now)
            stats = self._as_ms(snap)
            stats["rate_per_s"] = snap["rate_per_s"]
            out[name] = stats
        return out

    def export(self, registry: MetricsRegistry | None = None) -> None:
        """Set ``serve.latency.<phase>.pXX_ms`` gauges from the samples."""
        registry = registry if registry is not None else global_registry()
        for phase, stats in self.summary().items():
            for stat in ("p50_ms", "p95_ms", "p99_ms"):
                registry.gauge(
                    f"serve.latency.{phase}.{stat}").set(stats[stat])

    def export_window(self, window_s: float = 60.0,
                      registry: MetricsRegistry | None = None) -> None:
        """Set the ``serve.window.*`` SLO gauges from the trailing window.

        ``serve.window.latency.<phase>.pXX_ms`` per phase, plus
        ``serve.window.throughput.rps`` from the request phase's
        completion rate.
        """
        registry = registry if registry is not None else global_registry()
        summary = self.window_summary(window_s=window_s)
        for phase, stats in summary.items():
            for stat in ("p50_ms", "p95_ms", "p99_ms"):
                registry.gauge(
                    f"serve.window.latency.{phase}.{stat}"
                ).set(stats[stat])
        request = summary.get(REQUEST_PHASE)
        if request is not None:
            registry.gauge(WINDOW_THROUGHPUT_GAUGE).set(
                request["rate_per_s"])


def export_serve_gauges(throughput_rps: float | None = None,
                        batch_mean: float | None = None,
                        queue_depth_max: float | None = None,
                        queue_depth: float | None = None,
                        uptime_s: float | None = None,
                        registry: MetricsRegistry | None = None) -> None:
    """Set the scalar serving gauges that are not latency percentiles."""
    registry = registry if registry is not None else global_registry()
    if throughput_rps is not None:
        registry.gauge(THROUGHPUT_GAUGE).set(float(throughput_rps))
    if batch_mean is not None:
        registry.gauge(BATCH_MEAN_GAUGE).set(float(batch_mean))
    if queue_depth_max is not None:
        registry.gauge(QUEUE_DEPTH_GAUGE).set(float(queue_depth_max))
    if queue_depth is not None:
        registry.gauge(QUEUE_DEPTH_CURRENT_GAUGE).set(float(queue_depth))
    if uptime_s is not None:
        registry.gauge(UPTIME_GAUGE).set(float(uptime_s))


def stats_to_prometheus(stats: dict, health: dict | None = None) -> str:
    """Render a ``SolveServer.stats()`` dict (and optionally its
    ``health()`` dict) as Prometheus exposition text under the
    ``repro_serve_`` namespace — the payload of the ``stats`` op with
    ``format: "text"`` (docs/SERVING.md)."""
    flat = flatten_stats(stats, "serve")
    if health is not None:
        flat.update(flatten_stats(health, "health"))
    return prometheus_text(flat, prefix="repro_")

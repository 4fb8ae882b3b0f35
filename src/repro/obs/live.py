"""Live operational observability primitives.

Everything else in :mod:`repro.obs` is *run-scoped*: artifacts and
telemetry streams describe a run after it exits.  A long-lived server
(:mod:`repro.serve`) needs *live* answers — what is p99 over the last
minute, which worker is backed up, which request was slow and why —
without ever growing memory with uptime.  This module holds the
building blocks the serving layer (and any future daemon) composes for
that:

* :class:`RollingWindow` — a fixed-capacity ring of timestamped samples
  with windowed percentile/rate snapshots.  Appends are O(1), memory is
  bounded by the ring capacity forever.
* :class:`ExemplarRing` — a bounded top-K-by-latency store of slow-event
  exemplars (request id, phase breakdown, ...), the "which request was
  slow and why" answer.
* :func:`sparkline` — a unicode trend strip for terminal dashboards
  (``repro serve-top``).
* :func:`flatten_stats` / :func:`prometheus_text` — turn a nested stats
  dict into Prometheus exposition format so external scrapers can poll
  the server's ``stats`` op with ``format: "text"``.

The cumulative-vs-windowed split: run artifacts and ``repro report
--diff`` want *cumulative* statistics (bit-stable for a fixed workload);
operators want *windowed* ones (what is happening now).  A
:class:`RollingWindow` serves both: while fewer samples than
``capacity`` have been observed the full-ring snapshot is exactly the
cumulative distribution, and the timestamped window view is always the
live one.  See docs/OBSERVABILITY.md ("Run-scoped vs live metrics").
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading
import time

import numpy as np

__all__ = [
    "RollingWindow",
    "ExemplarRing",
    "SUMMARY_STATS",
    "summarize",
    "sparkline",
    "flatten_stats",
    "prometheus_text",
]


#: The statistics every sample summary carries beside ``count``.
SUMMARY_STATS = ("mean", "p50", "p95", "p99", "max")


def summarize(values, suffix: str = "") -> dict:
    """The repo's one percentile routine: ``count`` plus
    ``mean``/``p50``/``p95``/``p99``/``max`` (each key with ``suffix``
    appended, e.g. ``"_ms"``) of a sample array, in the samples' own
    unit, from a single ``np.percentile`` call.  Empty input yields
    zeros, never NaNs, so pollers can always render it."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        stats = (0.0,) * len(SUMMARY_STATS)
    else:
        p50, p95, p99 = np.percentile(v, (50, 95, 99))
        stats = (v.mean(), p50, p95, p99, v.max())
    return {"count": int(v.size),
            **{f"{name}{suffix}": float(x)
               for name, x in zip(SUMMARY_STATS, stats)}}


class RollingWindow:
    """Fixed-capacity ring of ``(timestamp, value)`` samples.

    Thread-safe.  ``append`` overwrites the oldest sample once
    ``capacity`` is reached, so memory is bounded regardless of uptime.
    Two read views:

    * :meth:`snapshot` — percentiles/mean/max over the samples inside a
      trailing time window (plus their arrival rate), i.e. "the last 60
      seconds";
    * :meth:`snapshot` with ``window_s=None`` — the same summary over
      every *retained* sample, which equals the exact cumulative
      distribution while ``count() <= capacity``.

    ``total_count`` / ``total_sum`` / ``total_max`` track the exact
    lifetime aggregates as cheap scalars even after the ring wraps.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._t = np.zeros(self.capacity, dtype=np.float64)
        self._v = np.zeros(self.capacity, dtype=np.float64)
        self._next = 0                      # next write slot
        self._filled = 0                    # samples currently retained
        self.total_count = 0
        self.total_sum = 0.0
        self.total_max = float("-inf")

    def append(self, value: float, t: float | None = None) -> None:
        t = time.monotonic() if t is None else float(t)
        value = float(value)
        with self._lock:
            self._t[self._next] = t
            self._v[self._next] = value
            self._next = (self._next + 1) % self.capacity
            self._filled = min(self._filled + 1, self.capacity)
            self.total_count += 1
            self.total_sum += value
            if value > self.total_max:
                self.total_max = value

    def count(self) -> int:
        """Exact lifetime sample count (survives ring wrap-around)."""
        with self._lock:
            return self.total_count

    def retained(self) -> int:
        """Samples currently held in the ring (<= capacity)."""
        with self._lock:
            return self._filled

    def values(self, window_s: float | None = None,
               now: float | None = None) -> np.ndarray:
        """Retained values, optionally restricted to the last
        ``window_s`` seconds (by sample timestamp)."""
        with self._lock:
            n = self._filled
            t = self._t[:n].copy() if n < self.capacity else self._t.copy()
            v = self._v[:n].copy() if n < self.capacity else self._v.copy()
        if window_s is None or v.size == 0:
            return v
        now = time.monotonic() if now is None else float(now)
        return v[t >= now - float(window_s)]

    def snapshot(self, window_s: float | None = None,
                 now: float | None = None) -> dict:
        """Summary dict over the (windowed) retained samples.

        Keys: ``count`` (samples in view), ``rate_per_s`` (count /
        window; 0 when ``window_s`` is None), ``mean``/``p50``/``p95``/
        ``p99``/``max`` in the sample's own unit, plus the lifetime
        ``total_count``.  An empty view yields zeros, never NaNs, so
        pollers can always render it.
        """
        v = self.values(window_s=window_s, now=now)
        with self._lock:
            total = self.total_count
        stats = summarize(v)
        rate = (v.size / float(window_s)) if window_s else 0.0
        return {"count": stats.pop("count"), "rate_per_s": float(rate),
                **stats, "total_count": total}


class ExemplarRing:
    """Bounded top-K store of slow-event exemplars.

    ``offer(score, record)`` keeps the K records with the highest score
    seen so far (a min-heap, so each offer is O(log K) and rejection of
    a fast event is O(1)).  The serving layer scores by request latency
    and records the request id, pattern, batch width, and per-phase
    breakdown — the trace of "why was this slow" with strictly bounded
    memory.
    """

    def __init__(self, k: int = 16) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self._lock = threading.Lock()
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = itertools.count()
        self.offered = 0

    def offer(self, score: float, record: dict) -> bool:
        """Consider one event; returns True if it was retained."""
        score = float(score)
        with self._lock:
            self.offered += 1
            if len(self._heap) < self.k:
                heapq.heappush(self._heap,
                               (score, next(self._seq), record))
                return True
            if score <= self._heap[0][0]:
                return False
            heapq.heapreplace(self._heap,
                              (score, next(self._seq), record))
            return True

    def threshold(self) -> float:
        """Smallest retained score (-inf while the ring is not full)."""
        with self._lock:
            if len(self._heap) < self.k:
                return float("-inf")
            return self._heap[0][0]

    def snapshot(self) -> list[dict]:
        """Retained records, slowest first, each with its ``score``."""
        with self._lock:
            items = sorted(self._heap, key=lambda e: (-e[0], e[1]))
        return [{"score": score, **record} for score, _, record in items]


#: Eight-level bar glyphs, lowest to highest.
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int | None = None,
              lo: float | None = None, hi: float | None = None) -> str:
    """Render a numeric series as a unicode sparkline.

    ``width`` keeps the *last* ``width`` points; ``lo``/``hi`` pin the
    scale (otherwise the series' own min/max).  Non-finite values render
    as spaces.  A flat series renders at the lowest glyph.
    """
    vals = [float(v) for v in values]
    if width is not None and width > 0:
        vals = vals[-width:]
    if not vals:
        return ""
    finite = [v for v in vals if math.isfinite(v)]
    if not finite:
        return " " * len(vals)
    lo = min(finite) if lo is None else float(lo)
    hi = max(finite) if hi is None else float(hi)
    span = hi - lo
    out = []
    for v in vals:
        if not math.isfinite(v):
            out.append(" ")
            continue
        if span <= 0:
            out.append(_SPARK_GLYPHS[0])
            continue
        idx = int((v - lo) / span * (len(_SPARK_GLYPHS) - 1) + 0.5)
        out.append(_SPARK_GLYPHS[max(0, min(idx, len(_SPARK_GLYPHS) - 1))])
    return "".join(out)


def flatten_stats(stats: dict, prefix: str = "") -> dict[str, float]:
    """Flatten a nested stats dict into dotted-name -> scalar.

    Non-numeric leaves (strings, lists — e.g. exemplar records) are
    skipped; booleans become 0/1.  This is the bridge between a server's
    ``stats()`` dict and the flat metric space Prometheus (and the
    registry) wants.
    """
    flat: dict[str, float] = {}
    for key, value in stats.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_stats(value, name))
        elif isinstance(value, bool):
            flat[name] = 1.0 if value else 0.0
        elif isinstance(value, (int, float)) and math.isfinite(value):
            flat[name] = float(value)
    return flat


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def prometheus_text(metrics: dict[str, float],
                    prefix: str = "") -> str:
    """Render flat name -> value metrics as Prometheus exposition text.

    One ``# TYPE <name> gauge`` header and one sample line per metric,
    names sanitized to ``[a-zA-Z0-9_]`` with an optional ``prefix``
    prepended.  The output ends with a newline (scrapers require it).
    """
    lines = []
    for name in sorted(metrics):
        prom = _prom_name(f"{prefix}{name}")
        lines.append(f"# TYPE {prom} gauge")
        value = metrics[name]
        lines.append(f"{prom} {value:.10g}")
    return "\n".join(lines) + "\n" if lines else ""

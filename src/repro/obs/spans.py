"""Span-based pipeline tracing (wall-clock + optional peak memory).

Usage::

    from repro.obs import enable_tracing, get_tracer, span

    enable_tracing(trace_memory=True)
    with span("symbolic.factorize"):
        ...
    for s in get_tracer().spans:
        print(s.name, s.duration_s)

The global tracer is *disabled* by default and ``span()`` then costs one
function call returning a shared no-op context manager, so library code
can be instrumented unconditionally.  Spans nest; each span records its
depth and parent name so exporters can rebuild the hierarchy.

High-volume instrumentation (per-supernode tasks, per-batch serve
sweeps) opens *detail* spans — ``span(name, detail=True, **attrs)`` —
which are handed to the completion listeners only and never enter
``Tracer.spans``, so their volume is bounded by the listener's disk
stream, not by memory or by the run artifact.  With no listener
registered a detail span is the same shared no-op.

The tracer is thread-safe: the open-span stack is thread-local (so spans
opened concurrently from worker threads — e.g. the numeric scheduler's
pool — nest within their own thread, not each other), completed
spans are appended under a lock, and registered completion listeners
(:meth:`Tracer.add_listener`, used by :mod:`repro.obs.telemetry` to
mirror spans into the run's event stream) are invoked in the completing
thread.

With ``trace_memory=True`` the tracer also samples :mod:`tracemalloc` and
records the peak traced allocation observed while the span was open (the
peak is reset as each span starts, so with *nested* spans an outer span
reports the peak since its most recent child closed; top-level phase
spans — the intended granularity — report true per-phase peaks).
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    """One completed pipeline phase."""

    name: str
    start_s: float          # perf_counter timestamp at entry
    duration_s: float
    depth: int = 0
    parent: str | None = None
    peak_mem_bytes: int | None = None
    attrs: dict | None = None

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "depth": self.depth,
            "parent": self.parent,
            "peak_mem_bytes": self.peak_mem_bytes,
        }
        if self.attrs:
            data["attrs"] = self.attrs
        return data

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=d["name"], start_s=d["start_s"],
            duration_s=d["duration_s"], depth=d.get("depth", 0),
            parent=d.get("parent"),
            peak_mem_bytes=d.get("peak_mem_bytes"),
            attrs=d.get("attrs"),
        )


class _NullContext:
    """Reusable no-op context manager (zero-allocation disabled path)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class Tracer:
    """Collects :class:`Span` records from ``span(...)`` blocks."""

    def __init__(self) -> None:
        self.enabled = False
        self.trace_memory = False
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._listeners: list[Callable[[Span], None]] = []
        self._started_tracemalloc = False

    @property
    def _stack(self) -> list[str]:
        # Per-thread open-span stack: concurrent spans from worker
        # threads must not corrupt each other's parent/depth chains.
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- lifecycle ----------------------------------------------------------

    def enable(self, trace_memory: bool = False) -> None:
        self.enabled = True
        self.trace_memory = trace_memory
        if trace_memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    def disable(self) -> None:
        self.enabled = False
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_tracemalloc = False

    def reset(self) -> None:
        with self._lock:
            self.spans = []
        self._local = threading.local()

    # -- listeners -----------------------------------------------------------

    def add_listener(self, fn: Callable[[Span], None]) -> None:
        """Call ``fn(span)`` in the completing thread for every span."""
        with self._lock:
            if fn not in self._listeners:
                self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[Span], None]) -> None:
        with self._lock:
            if fn in self._listeners:
                self._listeners.remove(fn)

    # -- recording ----------------------------------------------------------

    def span(self, name: str, detail: bool = False, **attrs):
        """Context manager timing one block as a :class:`Span`.

        A phase span (the default) nests under the thread's open spans
        and lands in :attr:`spans`.  A *detail* span goes to the
        listeners only, at depth 0.  Both return the shared no-op while
        the tracer is disabled, a detail span also while nobody listens.
        """
        if not self.enabled or (detail and not self._listeners):
            return _NULL_CONTEXT
        if detail:
            return self._record_detail(name, attrs)
        return self._record(name, attrs)

    @contextmanager
    def _record_detail(self, name: str, attrs: dict):
        start = time.perf_counter()
        try:
            yield
        finally:
            completed = Span(
                name=name, start_s=start,
                duration_s=time.perf_counter() - start,
                attrs=attrs or None,
            )
            for fn in list(self._listeners):
                fn(completed)

    @contextmanager
    def _record(self, name: str, attrs: dict):
        stack = self._stack
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(name)
        sample_mem = self.trace_memory and tracemalloc.is_tracing()
        if sample_mem:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            peak = (tracemalloc.get_traced_memory()[1]
                    if sample_mem else None)
            stack.pop()
            completed = Span(
                name=name, start_s=start, duration_s=duration,
                depth=depth, parent=parent, peak_mem_bytes=peak,
                attrs=attrs or None,
            )
            with self._lock:
                self.spans.append(completed)
                listeners = list(self._listeners)
            for fn in listeners:
                fn(completed)

    # -- queries ------------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_seconds(self, name: str) -> float:
        return sum(s.duration_s for s in self.find(name))

    def export(self) -> list[dict]:
        """Spans as JSON-ready dicts, in completion order."""
        return [s.to_dict() for s in self.spans]


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer used by :func:`span`."""
    return _TRACER


def enable_tracing(trace_memory: bool = False) -> Tracer:
    """Enable the global tracer (idempotent); returns it."""
    _TRACER.enable(trace_memory=trace_memory)
    return _TRACER


def disable_tracing() -> None:
    _TRACER.disable()


#: ``span(name, detail=False, **attrs)`` on the global tracer — the one
#: way to open a span.  Bound once so the disabled path is a single call.
span = _TRACER.span

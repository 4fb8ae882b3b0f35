"""In-memory spans for the traced pass.

One span per call into a layer: name, start, end, the span that caused
it (``parent``, an index into the same list) and the operation it
belongs to (``op``).  Spans are recorded only here, around calls into
``repro``'s public functions; nothing in ``src/`` is instrumented.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[int]:
        """Record a span around the body; yields the span's index."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        index = len(self.spans)
        self.spans.append({"name": name, "start": self.clock(),
                           "end": None, "parent": parent, "op": op})
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index]["end"] = self.clock()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, op: str | None = None) -> int:
        """Record a span whose times were taken elsewhere (a request
        timed by the load generator's threads)."""
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "op": op})
        return len(self.spans) - 1

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span["end"] - span["start"]

    def children(self, index: int) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s["parent"] == index]

    def self_time(self, index: int) -> float:
        """Duration minus the part covered by child spans (children of
        one span never overlap here: every rung is single-threaded
        between its layer calls)."""
        return self.duration(index) - sum(
            self.duration(c) for c in self.children(index))


def unaccounted_frac(tracer: Tracer, roots: list[int]) -> float:
    """1 - (seconds inside layer spans) / (seconds of the operations).

    ``roots`` are the operation spans; their direct children are the
    layer calls.  What is left is the ladder's own glue between calls —
    plus any layer the replay forgot, which is why it is printed.
    """
    total = sum(tracer.duration(r) for r in roots)
    glue = sum(tracer.self_time(r) for r in roots)
    return glue / total if total > 0 else 0.0

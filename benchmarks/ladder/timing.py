"""The ladder's one timing primitive.

Every rung times its operations through :func:`measure` and reduces every
list of samples through :func:`summarize`; nothing else in the ladder
reads a clock for a reported number.  The clock is a parameter so the
primitive is tested with a fake one (``tests/test_timing.py``).
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator

Clock = Callable[[], float]

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def percentile(samples: list[float], pct: float) -> float:
    """Linear-interpolated percentile."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(samples: list[float]) -> dict:
    """Median, quartiles and count of ``samples``, plus the highest
    percentile that still has :data:`TAIL_MIN_BEYOND` samples beyond it
    (``tail``/``tail_pct`` are ``None`` when the sample is too small)."""
    if not samples:
        raise ValueError("no samples to summarize")
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    out = {"n": n, "median": median(ordered), "q1": q1,
           "q3": q3, "tail": None, "tail_pct": None}
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            out["tail"] = percentile(ordered, pct)
            out["tail_pct"] = pct
            break
    return out


def measure(step: Callable[[int, Callable], None], *, warmup: int,
            repeat: int, clock: Clock = time.perf_counter
            ) -> dict[str, list[float]]:
    """Run ``step(i, lap)`` ``warmup + repeat`` times; return the seconds
    of every named lap, warm-up iterations dropped.

    ``lap(name)`` is a context manager timing its body.  A step may open
    several laps (a warm step times ``refactorize+solve`` and the k=32
    panel separately); work outside any lap — building inputs, checking
    the result — is not timed.
    """
    if warmup < 0 or repeat < 1:
        raise ValueError("need warmup >= 0 and repeat >= 1")
    laps: dict[str, list[float]] = {}
    for i in range(warmup + repeat):
        recording = i >= warmup

        @contextmanager
        def lap(name: str) -> Iterator[None]:
            start = clock()
            yield
            elapsed = clock() - start
            if recording:
                laps.setdefault(name, []).append(elapsed)

        step(i, lap)
    return laps

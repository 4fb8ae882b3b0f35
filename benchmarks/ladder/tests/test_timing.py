"""The timing primitive and the span arithmetic, on a fake clock."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import Tracer, unaccounted_frac  # noqa: E402
from timing import measure, percentile, summarize  # noqa: E402


class FakeClock:
    """Advances only when told to."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_measure_drops_warmup_and_times_only_laps():
    clock = FakeClock()
    seen = []

    def step(i, lap):
        seen.append(i)
        clock.advance(7.0)              # untimed: building inputs
        with lap("op"):
            clock.advance(1.0 + i)
        clock.advance(3.0)              # untimed: checking the result

    laps = measure(step, warmup=2, repeat=3, clock=clock)
    assert seen == [0, 1, 2, 3, 4]
    assert laps == {"op": [3.0, 4.0, 5.0]}


def test_measure_keeps_laps_apart():
    clock = FakeClock()

    def step(i, lap):
        with lap("a"):
            clock.advance(2.0)
        with lap("b"):
            clock.advance(0.5)

    laps = measure(step, warmup=1, repeat=2, clock=clock)
    assert laps == {"a": [2.0, 2.0], "b": [0.5, 0.5]}


def test_measure_rejects_no_repetitions():
    with pytest.raises(ValueError):
        measure(lambda i, lap: None, warmup=0, repeat=0)


def test_summarize_median_quartiles_and_count():
    s = summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["n"], s["median"]) == (5, 3.0)
    assert s["q1"] == 1.5 and s["q3"] == 4.5
    assert s["tail"] is None and s["tail_pct"] is None


def test_summarize_single_sample():
    s = summarize([2.5])
    assert (s["n"], s["median"], s["q1"], s["q3"]) == (1, 2.5, 2.5, 2.5)


def test_summarize_reports_highest_tail_with_ten_samples_beyond():
    # 300 samples: 15 lie beyond p95, only 3 beyond p99.
    s = summarize([float(i) for i in range(300)])
    assert s["tail_pct"] == 95.0
    assert s["tail"] == pytest.approx(percentile(
        [float(i) for i in range(300)], 95.0))
    assert summarize([float(i) for i in range(1000)])["tail_pct"] == 99.0
    assert summarize([float(i) for i in range(99)])["tail_pct"] is None


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_self_time_and_unaccounted_fraction():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("op", op="op0") as root:
        clock.advance(1.0)              # glue before the first layer
        with tr.span("layer.a"):
            clock.advance(6.0)
            with tr.span("layer.a.inner"):
                clock.advance(2.0)
        with tr.span("layer.b"):
            clock.advance(1.0)
    assert tr.duration(root) == 10.0
    assert tr.self_time(root) == 1.0
    a = tr.children(root)[0]
    assert tr.self_time(a) == 6.0 and tr.duration(a) == 8.0
    assert unaccounted_frac(tr, [root]) == pytest.approx(0.1)
    # children inherit the operation id; parents are list indices
    assert [s["op"] for s in tr.spans] == ["op0"] * 4
    assert [s["parent"] for s in tr.spans] == [None, 0, 1, 0]

"""The numeric-phase scheduler: dependence-count dispatch on threads.

One numeric factorization is a set of per-supernode steps — extend-add
the children's update blocks into the supernode's front (A's entries are
already there), run the partial factorization, hand the update block up.
The scheduler runs *tasks*: a whole subtree of small (grouped)
supernodes, or one larger supernode (:class:`FactorTasks`, over the task
forest of the pattern-cached
:class:`~repro.numeric.engine.NumericContext`), each one call into the
compiled core that releases the GIL, so tasks on different threads run
at the same time.  :func:`run_scheduled` decides *where and when* each
task runs.

Each task carries a dependence count (its number of children in the
task forest); completion of a child decrements the parent's count, and
the parent is submitted to the thread pool the moment the count hits
zero.  This is the launch rule of Spatula's supernode scheduler (paper
§4.4, §5.2) and the CKTSO-style pipelined task-graph numeric phase: a
slow task only delays its own ancestors, never unrelated subtrees.
With ``workers <= 1`` the tasks run inline in ascending index order,
which is a valid bottom-up traversal because children are always
numbered before their parents.

The stored factor is bitwise equal for every worker count: each
supernode's computation is a pure function of its assembled front
(children extend-added in fixed ascending order) and the kernels are
deterministic, so only the execution interleaving changes.

A run returns a :class:`ScheduleStats` — the evidence record the
attribution layer turns into scheduler-idle / load-imbalance buckets
(ready-queue depth, dispatch latency, per-worker busy/idle seconds).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.numeric.compiled import Job
from repro.obs import span, telemetry

__all__ = [
    "FactorTasks",
    "ScheduleStats",
    "WorkerLanes",
    "run_scheduled",
]

#: Longest ready-depth / latency series kept verbatim in attribution
#: output; longer series are decimated (aggregates are exact regardless).
MAX_SERIES = 256


class WorkerLanes:
    """Per-worker-thread busy/task accounting.

    Each executing thread accumulates into its own lane (keyed by thread
    identity); ``dict.setdefault`` and per-lane list mutation are
    GIL-atomic enough for the accounting here (each lane is only ever
    written by its own thread).
    """

    def __init__(self) -> None:
        self._lanes: dict[int, list[float]] = {}

    def record(self, seconds: float) -> None:
        lane = self._lanes.setdefault(threading.get_ident(), [0.0, 0.0])
        lane[0] += seconds
        lane[1] += 1.0

    def busy(self) -> list[float]:
        return [lane[0] for lane in self._lanes.values()]

    def tasks(self) -> list[int]:
        return [int(lane[1]) for lane in self._lanes.values()]


def _decimate(series: list, limit: int = MAX_SERIES) -> list:
    if len(series) <= limit:
        return list(series)
    idx = np.linspace(0, len(series) - 1, limit).astype(int)
    return [series[i] for i in idx]


@dataclass
class ScheduleStats:
    """What one scheduler run looked like, for attribution and metrics.

    Attributes:
        workers: requested worker count.
        wall_s: scheduler wall-clock (dispatch through last completion).
        dispatched: tasks executed on pool threads.
        inline_tasks: tasks run inline on the calling thread.
        worker_busy_s: per-worker-thread busy seconds (the inline lane
            is not included).
        worker_tasks: per-worker-thread task counts.
        ready_depth: ready-queue depth sampled at each dispatch.
        dispatch_latency_s: per-task ready-to-running latency samples.
    """

    workers: int
    wall_s: float = 0.0
    dispatched: int = 0
    inline_tasks: int = 0
    worker_busy_s: list[float] = field(default_factory=list)
    worker_tasks: list[int] = field(default_factory=list)
    ready_depth: list[int] = field(default_factory=list)
    dispatch_latency_s: list[float] = field(default_factory=list)

    def worker_idle_s(self) -> list[float]:
        """Per-worker idle seconds (wall minus busy, floored at 0)."""
        return [max(0.0, self.wall_s - b) for b in self.worker_busy_s]

    def idle_seconds(self) -> float:
        """Total scheduler-idle seconds across worker lanes."""
        return float(sum(self.worker_idle_s()))

    def task_imbalance(self) -> float:
        """Max-over-mean deviation of per-worker task counts (0 = even)."""
        if not self.worker_tasks:
            return 0.0
        mean = sum(self.worker_tasks) / len(self.worker_tasks)
        if mean <= 0.0:
            return 0.0
        return max(self.worker_tasks) / mean - 1.0

    def summary(self) -> dict:
        """The attribution-ready dict view of this run."""
        depth = np.asarray(self.ready_depth, dtype=float)
        lat = np.asarray(self.dispatch_latency_s, dtype=float)
        return {
            "workers": self.workers,
            "wall_s": self.wall_s,
            "dispatched": self.dispatched,
            "inline_tasks": self.inline_tasks,
            "worker_busy_s": list(self.worker_busy_s),
            "worker_idle_s": self.worker_idle_s(),
            "worker_tasks": list(self.worker_tasks),
            "idle_s": self.idle_seconds(),
            "task_imbalance": self.task_imbalance(),
            "ready_depth": {
                "mean": float(depth.mean()) if depth.size else 0.0,
                "max": int(depth.max()) if depth.size else 0,
                "series": _decimate(self.ready_depth),
            },
            "dispatch_latency_ms": {
                "mean": float(lat.mean() * 1e3) if lat.size else 0.0,
                "max": float(lat.max() * 1e3) if lat.size else 0.0,
            },
        }


class FactorTasks:
    """One numeric factorization as the scheduler's tasks.

    Task ``t`` runs supernodes ``task_bounds[t]`` .. ``task_bounds[t + 1]
    - 1`` of the pattern-cached context ``ctx`` in ascending order (a
    whole subtree of grouped supernodes, or one larger supernode): per
    supernode, add the children's update blocks into its front, factor
    it, and pass its own update block up — one call into the compiled
    core (:class:`repro.numeric.compiled.Job`), which releases the GIL.
    A's values are scattered into the one factor ``buffer`` first, and
    every supernode's ``P`` | ``R`` is a slice of it; the update blocks
    live in C until their parent consumes them.  ``sn_parent`` is the
    task forest (the scheduler's protocol) and ``busy[t]`` task ``t``'s
    wall-clock seconds (disjoint slots, no locking).  :meth:`compute` is
    safe to call concurrently for tasks whose children have completed.
    ``bumped[i]`` counts the pivots of supernode ``i`` the LU bump
    replaced; ``perturb`` is ``None`` for Cholesky and the bump
    threshold for LU.
    """

    def __init__(self, ctx, values: np.ndarray, block: int,
                 perturb: float | None = None) -> None:
        self.ctx = ctx
        self.buffer = np.zeros(int(ctx.pr_off[-1]))
        self.bumped = np.zeros(len(ctx.layout), dtype=np.int64)
        self.job = Job(ctx.c, self.buffer, values, self.bumped, block,
                       perturb)
        self.sn_parent = ctx.task_parent
        self.busy = np.zeros(len(ctx.task_parent))

    def compute(self, t: int) -> None:
        t0 = time.perf_counter()
        self.job.run_task(t)
        self.busy[t] = time.perf_counter() - t0

    def check_consumed(self) -> None:
        """Every update matrix must have been extend-added exactly once."""
        if self.job.pending():
            raise AssertionError("unconsumed update matrices remain")


def run_scheduled(job, workers: int) -> ScheduleStats:
    """Run every task of ``job`` on ``workers`` threads, each the moment
    its last child has finished, and return the run's stats.

    ``job.sn_parent`` is the task forest (``-1`` for roots, children
    numbered before parents) and ``job.compute(i)`` runs task ``i``.
    The first task to raise stops further submissions; tasks already
    queued drain without computing and the exception is re-raised here.
    """
    parent_of = np.asarray(job.sn_parent)
    total = len(parent_of)
    stats = ScheduleStats(workers)
    t_start = time.perf_counter()

    if workers <= 1:
        for i in range(total):
            job.compute(i)
        stats.inline_tasks = total
        stats.wall_s = time.perf_counter() - t_start
        return stats

    deps = np.bincount(parent_of[parent_of >= 0], minlength=total).tolist()
    cond = threading.Condition()
    state = {"submitted": 0, "finished": 0, "error": None, "ready": 0}
    ready_at: dict[int, float] = {}
    lanes = WorkerLanes()
    traced = telemetry.active()

    def submit(pool: ThreadPoolExecutor, i: int, now: float) -> None:
        # Caller holds ``cond``.
        ready_at[i] = now
        state["submitted"] += 1
        state["ready"] += 1
        stats.ready_depth.append(state["ready"])
        pool.submit(run_task, pool, i)

    def run_task(pool: ThreadPoolExecutor, i: int) -> None:
        t0 = time.perf_counter()
        with cond:
            state["ready"] -= 1
            if state["error"] is not None:
                # Drain without computing once a task has failed.
                state["finished"] += 1
                cond.notify()
                return
        stats.dispatch_latency_s.append(t0 - ready_at[i])
        try:
            if traced:
                with span("numeric.supernode", detail=True, sn=i):
                    job.compute(i)
            else:
                job.compute(i)
        except BaseException as exc:  # noqa: BLE001 - repropagated below
            with cond:
                if state["error"] is None:
                    state["error"] = exc
                state["finished"] += 1
                cond.notify()
            return
        t1 = time.perf_counter()
        lanes.record(t1 - t0)
        with cond:
            parent = int(job.sn_parent[i])
            if parent >= 0 and state["error"] is None:
                deps[parent] -= 1
                if deps[parent] == 0:
                    submit(pool, parent, t1)
            state["finished"] += 1
            cond.notify()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        with cond:
            now = time.perf_counter()
            for i in range(total):
                if deps[i] == 0:
                    submit(pool, i, now)
            # Done when nothing is in flight and either everything ran
            # or an error stopped further submissions.
            while not (
                state["finished"] == state["submitted"]
                and (state["error"] is not None or state["finished"] == total)
            ):
                cond.wait()
    if state["error"] is not None:
        raise state["error"]

    stats.dispatched = total
    stats.worker_busy_s = lanes.busy()
    stats.worker_tasks = lanes.tasks()
    stats.wall_s = time.perf_counter() - t_start
    return stats

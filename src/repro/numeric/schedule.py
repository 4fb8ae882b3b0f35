"""The numeric-phase scheduler: dependence-count dispatch on threads.

One numeric factorization is a set of per-supernode tasks — assemble a
frontal matrix from A's entries plus the children's update matrices,
run the blocked partial factorization, store the factor block(s) —
described by a :class:`SupernodeJob`.  :func:`run_scheduled` decides
*where and when* each supernode runs.

Each supernode carries a dependence count (its number of assembly-tree
children); completion of a child decrements the parent's count, and the
parent is submitted to the thread pool the moment the count hits zero.
This is the launch rule of Spatula's supernode scheduler (paper §4.4,
§5.2) and the CKTSO-style pipelined task-graph numeric phase: a slow
supernode only delays its own ancestors, never unrelated subtrees.
With ``workers <= 1`` (or a one-node tree) the tasks run inline in
ascending index order, which is a valid bottom-up traversal because
children are always numbered before their parents.

The stored factor is bitwise equal for every worker count: each
supernode's computation is a pure function of its assembled front
(children extend-added in fixed ascending order inside
:meth:`SupernodeJob.compute`) and the blocked kernels are
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

from repro.numeric.dense import cholesky_front, lu_front
from repro.obs import span, telemetry

__all__ = [
    "ScheduleStats",
    "SupernodeJob",
    "TaskTimer",
    "WorkerLanes",
    "run_scheduled",
]

#: Longest ready-depth / latency series kept verbatim in attribution
#: output; longer series are decimated (aggregates are exact regardless).
MAX_SERIES = 256


class TaskTimer:
    """Per-supernode wall-clock accumulator (disjoint slots, no locking)."""

    def __init__(self, n: int) -> None:
        self.busy = np.zeros(n)

    def time(self, i: int):
        return _TimeSlot(self.busy, i)

    def total(self) -> float:
        return float(self.busy.sum())


class _TimeSlot:
    __slots__ = ("_busy", "_i", "_t0")

    def __init__(self, busy: np.ndarray, i: int) -> None:
        self._busy = busy
        self._i = i

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self._busy[self._i] += time.perf_counter() - self._t0
        return False


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


class SupernodeJob:
    """One numeric factorization as schedulable per-supernode tasks.

    Owns the state of one factorization: the pattern-cached numeric
    context, the permuted input values, the in-flight update matrices,
    and the per-supernode outputs — ``fronts[i] = (rows, P, R)`` (``R``
    is empty for Cholesky) and, for LU, ``perturbed[i]``, the pivots the
    static-pivoting bump replaced.  ``perturb`` is ``None`` for Cholesky
    and the bump threshold for LU.  :meth:`compute` is the task body the
    scheduler runs; it is safe to call concurrently for *independent*
    supernodes (each task writes only its own slots and consumes only
    its children's — all of which completed first).
    """

    def __init__(self, ctx, permuted_data: np.ndarray, block: int,
                 perturb: float | None = None) -> None:
        tree = ctx.symbolic.tree
        self.ctx = ctx
        self.supernodes = tree.supernodes
        self.child_maps = tree.child_maps
        self.n_supernodes = tree.n_supernodes
        self.sn_parent = ctx.sn_parent
        self.permuted_data = permuted_data
        self.block = block
        self.perturb = perturb
        self.updates: list[np.ndarray | None] = [None] * self.n_supernodes
        self.fronts: list[tuple[np.ndarray, ...] | None] = \
            [None] * self.n_supernodes
        self.perturbed = np.zeros(self.n_supernodes, dtype=np.int64)
        self.timer = TaskTimer(self.n_supernodes)

    def compute(self, i: int) -> None:
        """Assemble, extend-add, factor, and store supernode ``i``, its
        front split as in :mod:`repro.numeric.dense`: ``P`` and (LU)
        ``R`` in one buffer, the update block ``C`` (passed up) apart."""
        with self.timer.time(i):
            sn = self.supernodes[i]
            k, m = sn.n_cols, sn.n_update_rows
            size = k + m
            m_right = 0 if self.perturb is None else m
            buf = np.zeros(size * k + k * m_right)
            buf[self.ctx.front_pos[i]] = \
                self.permuted_data[self.ctx.data_idx[i]]
            panel = buf[:size * k].reshape(size, k)
            right = buf[size * k:].reshape(k, m_right)
            update = np.zeros((m, m))
            # Extend-add children in fixed (ascending) order so the
            # result does not depend on which worker computed each child.
            # A child's sorted positions split at the first update row:
            # entries in pivot columns go to P, pivot rows right of them
            # to R (LU only; Cholesky's strict upper is never read), the
            # rest to C — one flat-index scatter-add each (several times
            # faster than a 2-D fancy index, no gathered temporary).
            for child in sn.children:
                pos = self.child_maps[child]
                if pos is None:
                    continue
                child_update = self.updates[child]
                self.updates[child] = None
                s = int(np.searchsorted(pos, k))
                top, low = pos[:s], pos[s:] - k
                np.add.at(buf, (pos[:, None] * k + top).reshape(-1),
                          child_update[:, :s].reshape(-1))
                if m_right:
                    np.add.at(right.reshape(-1),
                              (top[:, None] * m + low).reshape(-1),
                              child_update[:s, s:].reshape(-1))
                np.add.at(update.reshape(-1),
                          (low[:, None] * m + low).reshape(-1),
                          child_update[s:, s:].reshape(-1))
            if self.perturb is None:
                cholesky_front(panel, update, self.block)
            else:
                self.perturbed[i] = lu_front(panel, right, update,
                                             self.perturb, self.block)
            self.fronts[i] = (sn.rows.copy(), panel, right)
            if sn.parent >= 0 and m > 0:
                self.updates[i] = update

    def check_consumed(self) -> None:
        """Every update matrix must have been extend-added exactly once."""
        if any(u is not None for u in self.updates):
            raise AssertionError("unconsumed update matrices remain")


def run_scheduled(job: SupernodeJob, workers: int) -> ScheduleStats:
    """Run every supernode task of ``job`` on ``workers`` threads, each
    the moment its last child has finished, and return the run's stats.

    The first task to raise stops further submissions; tasks already
    queued drain without computing and the exception is re-raised here.
    """
    total = job.n_supernodes
    stats = ScheduleStats(workers)
    t_start = time.perf_counter()

    if workers <= 1 or total <= 1:
        for i in range(total):
            job.compute(i)
        stats.inline_tasks = total
        stats.wall_s = time.perf_counter() - t_start
        return stats

    deps = [len(sn.children) for sn in job.supernodes]
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

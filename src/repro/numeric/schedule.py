"""The numeric-phase scheduler: dependence-count dispatch on threads.

One numeric factorization is a set of per-supernode steps — extend-add
the children's update blocks into the supernode's front (A's entries are
already there), run the partial factorization, hand the update block up
— described by a :class:`SupernodeJob`.  The scheduler runs *tasks*: a
whole subtree of small (grouped) supernodes, or one larger supernode
(:class:`GroupTasks`, over the task forest of the pattern-cached
:class:`~repro.numeric.engine.NumericContext`).  :func:`run_scheduled`
decides *where and when* each task runs.

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
(children extend-added in fixed ascending order inside
:meth:`SupernodeJob.compute`) and the kernels are deterministic, so only
the execution interleaving changes.

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
    "GroupTasks",
    "ScheduleStats",
    "SupernodeJob",
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


class SupernodeJob:
    """One numeric factorization as per-supernode steps.

    Owns the state of one factorization: the pattern-cached numeric
    context; the factor buffer, into which A's values are scattered once
    and of which every supernode's ``P`` | ``R`` is a slice (the stored
    factor pins nothing else); per grouped parent, the arena its
    children's update blocks ``C`` sit in, side by side — allocated by
    the first child to run and released once the parent has added them;
    the in-flight update blocks; and the per-supernode outputs —
    ``fronts[i] = (rows, P, R)`` (``R`` is empty for Cholesky), the solve
    operands ``operands[i]`` and, for LU, ``perturbed[i]``, the pivots the
    static-pivoting bump replaced.  ``perturb`` is ``None`` for Cholesky
    and the bump threshold for LU.  :meth:`compute` is the step a task
    runs; it is safe to call concurrently for *independent* supernodes
    (each writes only its own slots and consumes only its children's —
    all of which completed first).
    """

    def __init__(self, ctx, permuted_data: np.ndarray, block: int,
                 perturb: float | None = None) -> None:
        n_sn = len(ctx.layout)
        self.ctx = ctx
        self.block = block
        self.perturb = perturb
        self.buffer = np.zeros(int(ctx.pr_off[-1]))
        self.buffer[ctx.dst] = permuted_data[ctx.src]
        self.arenas: list[np.ndarray | None] = [None] * n_sn
        self._arena_lock = threading.Lock()
        self.updates: list[np.ndarray | None] = [None] * n_sn
        self.fronts: list[tuple[np.ndarray, ...] | None] = [None] * n_sn
        self.operands: list[tuple | None] = [None] * n_sn
        self.perturbed = np.zeros(n_sn, dtype=np.int64)

    def _arena(self, p: int) -> np.ndarray:
        """Grouped parent ``p``'s arena, allocated (zeroed) by whichever
        child gets here first — children in other tasks may race."""
        arena = self.arenas[p]
        if arena is None:
            with self._arena_lock:
                arena = self.arenas[p]
                if arena is None:
                    arena = self.arenas[p] = np.zeros(self.ctx.arena_len[p])
        return arena

    def compute(self, i: int) -> None:
        """Extend-add, factor, and store supernode ``i``, its front split
        as in :mod:`repro.numeric.dense`: ``P`` and (LU) ``R`` in the
        factor buffer, the update block ``C`` (passed up) in its parent's
        arena or, below a parent too large to be grouped, on its own."""
        ctx = self.ctx
        k, m, lo, mid, hi, at, parent = ctx.layout[i]
        pr = self.buffer[lo:hi]
        panel = pr[:mid - lo].reshape(-1, k)
        right = pr[mid - lo:].reshape(k, -1)
        update = (self._arena(parent)[at:at + m * m].reshape(m, m)
                  if at >= 0 else np.zeros((m, m)))
        if ctx.kids[i]:
            self._extend_add(i, k, m, pr, right, update)
        if self.perturb is None:
            cholesky_front(panel, update, self.block)
            back = panel[k:].T
        else:
            self.perturbed[i] = lu_front(panel, right, update, self.perturb,
                                         self.block)
            back = right
        rows = ctx.rows[i]
        self.fronts[i] = (rows, panel, right)
        # What the supernodal solve reads, Fortran-contiguous where a dtrsm
        # takes it: pivot rows, L11^T, L21, update rows, and the backward
        # update operand (L21^T or U12).
        self.operands[i] = (ctx.pivots[i], panel[:k].T, panel[k:], rows[k:],
                            back)
        if m:
            self.updates[i] = update

    def _extend_add(self, i: int, k: int, m: int, pr: np.ndarray,
                    right: np.ndarray, update: np.ndarray) -> None:
        """Add the children's update blocks into supernode ``i``'s front.

        Children go in fixed ascending order, so the result does not
        depend on which worker computed each child, and every entry
        receives the same additions in the same order on both paths.  A
        grouped parent adds its whole arena with one ``np.add.at``
        through its cached map into a workspace copy of the front
        ``[P | R | C]`` (for Cholesky ``R`` is scratch), then copies
        ``P`` | ``R`` and ``C`` back and releases the arena; the arena is
        not the target, so ``np.add.at`` takes it as it is (values that
        alias the target would make it copy the whole target).  A larger
        parent splits each child's sorted positions at its first update
        row on the fly: the ``P`` block (pivot columns), for LU the ``R``
        block (pivot rows right of them; Cholesky's strict upper is never
        read) and the ``C`` block are outer sums of row and column
        offsets, one pass per entry — cheaper than building a flat map,
        and caching one would cost as much memory as the fronts.
        """
        ctx = self.ctx
        kids = ctx.kids[i]
        maps = ctx.ea_maps[i]
        if maps is not None:
            mm = m * m
            front = np.zeros(len(pr) - right.size + k * m + mm)
            front[:len(pr)] = pr
            arena, self.arenas[i] = self.arenas[i], None
            np.add.at(front, maps, arena)
            pr[...] = front[:len(pr)]
            if mm:
                update.reshape(-1)[...] = front[-mm:]
        else:
            child_maps = ctx.tree.child_maps
            for c in kids:
                pos, child = child_maps[c], self.updates[c]
                s = int(np.searchsorted(pos, k))
                top, low = pos[:s], pos[s:] - k
                np.add.at(pr, (pos[:, None] * k + top).reshape(-1),
                          child[:, :s].reshape(-1))
                if right.size:
                    np.add.at(right.reshape(-1),
                              (top[:, None] * m + low).reshape(-1),
                              child[:s, s:].reshape(-1))
                np.add.at(update.reshape(-1),
                          (low[:, None] * m + low).reshape(-1),
                          child[s:, s:].reshape(-1))
        for c in kids:
            self.updates[c] = None

    def check_consumed(self) -> None:
        """Every update matrix must have been extend-added exactly once."""
        if any(u is not None for u in self.updates):
            raise AssertionError("unconsumed update matrices remain")


class GroupTasks:
    """A :class:`SupernodeJob` as the scheduler's tasks: task ``t`` runs
    supernodes ``bounds[t]`` .. ``bounds[t + 1] - 1`` in ascending order
    (a whole subtree of grouped supernodes, or one larger supernode), and
    ``sn_parent`` is the task forest — the scheduler's protocol, shared
    with a job whose tasks are single nodes.  ``busy[t]`` is task
    ``t``'s wall-clock seconds (disjoint slots, no locking)."""

    def __init__(self, job: SupernodeJob, bounds: np.ndarray,
                 parent: np.ndarray) -> None:
        self.job = job
        self.bounds = bounds.tolist()
        self.sn_parent = parent
        self.busy = np.zeros(len(parent))

    def compute(self, t: int) -> None:
        t0 = time.perf_counter()
        for i in range(self.bounds[t], self.bounds[t + 1]):
            self.job.compute(i)
        self.busy[t] = time.perf_counter() - t0


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

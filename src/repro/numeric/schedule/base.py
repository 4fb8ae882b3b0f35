"""Shared machinery of the numeric-phase schedulers.

A *scheduler* executes the per-supernode tasks of one numeric
factorization in some dependence-respecting order.  The work itself is
described by a :class:`SupernodeJob` — assembly of a frontal matrix from
A's entries plus the children's update matrices, a blocked partial
factorization, and storage of the resulting factor block(s) — while the
scheduler decides *where and when* each supernode runs:

* :mod:`repro.numeric.schedule.level` — level sets with a barrier
  between levels (the baseline);
* :mod:`repro.numeric.schedule.dag` — barrier-free task-graph
  dispatch: a supernode fires the moment its last etree child finishes;
* :mod:`repro.numeric.schedule.procs` — subtree-parallel worker
  *processes* over shared-memory factor buffers, with the top of the
  tree finished by the DAG scheduler in the parent.

Every scheduler must preserve the bit-identity invariant: the stored
factor is bitwise equal for every scheduler and worker count, because
each supernode's computation is a pure function of its assembled front
(children extend-added in fixed ascending order) and the blocked
kernels are deterministic.

Schedulers return a :class:`ScheduleStats` — the evidence record the
attribution layer turns into scheduler-idle / load-imbalance buckets
(ready-queue depth, dispatch latency, per-worker busy/idle seconds).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

#: Scheduler names accepted across the stack (tuning, CLI, benchmarks).
SCHEDULER_NAMES = ("level", "dag", "procs")

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
        scheduler: which backend ran ("level" | "dag" | "procs").
        workers: requested worker count.
        wall_s: scheduler wall-clock (dispatch through last completion).
        dispatched: tasks executed off the inline main-thread path
            (thread-pool tasks, or subtree tasks in worker processes).
        inline_tasks: tasks run inline on the main thread.
        worker_busy_s: per-worker-lane busy seconds (threads for
            level/dag, processes for procs; the main inline lane is not
            included).
        worker_tasks: per-worker-lane task counts.
        ready_depth: ready-queue depth sampled at each dispatch (level
            width at each barrier for the level scheduler).
        dispatch_latency_s: per-task ready-to-running latency samples.
        n_subtrees: independent subtrees farmed to processes (procs
            only).
        top_tasks: supernodes finished by the parent's DAG phase (procs
            only).
    """

    scheduler: str
    workers: int
    wall_s: float = 0.0
    dispatched: int = 0
    inline_tasks: int = 0
    worker_busy_s: list[float] = field(default_factory=list)
    worker_tasks: list[int] = field(default_factory=list)
    ready_depth: list[int] = field(default_factory=list)
    dispatch_latency_s: list[float] = field(default_factory=list)
    n_subtrees: int = 0
    top_tasks: int = 0

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
            "scheduler": self.scheduler,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "dispatched": self.dispatched,
            "inline_tasks": self.inline_tasks,
            "n_subtrees": self.n_subtrees,
            "top_tasks": self.top_tasks,
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

    Owns the state previously closured inside ``multifrontal_cholesky``
    / ``multifrontal_lu``: the pattern-cached numeric context, the
    permuted input values, the in-flight update matrices, and the
    per-supernode outputs.  :meth:`compute` is the task body every
    scheduler runs; it is safe to call concurrently for *independent*
    supernodes (each task writes only its own slots and consumes only
    its children's — all of which completed first).

    Subclasses implement the kind-specific ``_factor`` step plus the
    output transport hooks the process backend uses to ship factor
    blocks through shared memory (:meth:`output_shapes` /
    :meth:`output_arrays` / :meth:`load_outputs`, and the per-supernode
    scalar channel for LU's perturbed-pivot counts).
    """

    def __init__(self, ctx, permuted_data: np.ndarray, block: int) -> None:
        symbolic = ctx.symbolic
        tree = symbolic.tree
        self.ctx = ctx
        self.symbolic = symbolic
        self.supernodes = tree.supernodes
        self.child_maps = tree.child_maps
        self.n_supernodes = tree.n_supernodes
        self.sn_parent = ctx.sn_parent
        self.levels = ctx.levels
        self.permuted_data = permuted_data
        self.block = block
        self.updates: list[np.ndarray | None] = [None] * self.n_supernodes
        self.timer = TaskTimer(self.n_supernodes)

    def compute(self, i: int) -> None:
        """Assemble, extend-add, factor, and store supernode ``i``."""
        with self.timer.time(i):
            sn = self.supernodes[i]
            size = sn.front_size
            values = np.zeros((size, size))
            flat = values.reshape(-1)
            flat[self.ctx.flat_pos[i]] = \
                self.permuted_data[self.ctx.data_idx[i]]
            # Extend-add children in fixed (ascending) order so the
            # result does not depend on which worker computed each child.
            # The same additions as values[pos[:, None], pos] += update,
            # as one scatter-add over flat indices: several times faster
            # than the 2-D fancy index and no gathered temporary.
            for child in sn.children:
                pos = self.child_maps[child]
                if pos is None:
                    continue
                child_update = self.updates[child]
                self.updates[child] = None
                np.add.at(flat, (pos[:, None] * size + pos).reshape(-1),
                          child_update.reshape(-1))
            self._factor(i, sn, values)
            if sn.parent >= 0 and sn.n_update_rows > 0:
                self.updates[i] = values[sn.n_cols:, sn.n_cols:].copy()

    def check_consumed(self) -> None:
        """Every update matrix must have been extend-added exactly once."""
        if any(u is not None for u in self.updates):
            raise AssertionError("unconsumed update matrices remain")

    # -- kind-specific --------------------------------------------------------

    def _factor(self, i: int, sn, values: np.ndarray) -> None:
        raise NotImplementedError

    # -- shared-memory transport hooks (process backend) ----------------------

    def output_shapes(self, i: int) -> list[tuple[int, ...]]:
        """Shapes of supernode ``i``'s stored factor arrays — a pure
        function of the symbolic analysis (known before computing)."""
        raise NotImplementedError

    def output_arrays(self, i: int) -> list[np.ndarray]:
        """The stored factor arrays of a *computed* supernode."""
        raise NotImplementedError

    def load_outputs(self, i: int, arrays: list[np.ndarray]) -> None:
        """Adopt factor arrays computed in another process."""
        raise NotImplementedError

    def scalar_output(self, i: int) -> float:
        """Optional per-supernode scalar channel (LU perturbed pivots)."""
        return 0.0

    def load_scalar(self, i: int, value: float) -> None:
        pass

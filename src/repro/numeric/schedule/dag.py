"""Barrier-free DAG scheduling of the numeric phase.

Instead of synchronizing at every elimination-tree level, each
supernode carries a dependence count (its number of etree children);
completion of a child decrements the parent's count, and the parent is
submitted to the thread pool the moment the count hits zero.  This is
the CKTSO-style pipelined task-graph numeric phase: a slow supernode
only delays its own ancestors, never unrelated subtrees, so
wide-but-uneven level profiles no longer serialize on their slowest
member.

Bit-identity is preserved because the *result* of each supernode task
is order-independent (children extend-added in fixed ascending order
inside ``SupernodeJob.compute``); only the execution interleaving
changes.

``run_dag`` also accepts a node subset so the process backend can use
it to finish the top of the tree after the subtree phase.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.obs import span, telemetry

from .base import ScheduleStats, SupernodeJob, WorkerLanes


def run_dag(
    job: SupernodeJob,
    workers: int,
    nodes: Sequence[int] | np.ndarray | None = None,
) -> ScheduleStats:
    """Run ``job`` over ``nodes`` (default: all supernodes) dataflow-style.

    ``nodes`` must be closed under the "all children inside or already
    computed" rule: a node's children are either in ``nodes`` too or
    have had their update matrices loaded into ``job.updates`` already
    (the process backend's boundary case).  Dependence counts only
    track children *inside* the subset.
    """
    if nodes is None:
        node_list = list(range(job.n_supernodes))
    else:
        node_list = [int(i) for i in nodes]
    stats = ScheduleStats("dag", workers)
    t_start = time.perf_counter()

    if workers <= 1 or len(node_list) <= 1:
        # Ascending index order is a valid bottom-up traversal
        # (children are always numbered before their parents).
        for i in sorted(node_list):
            job.compute(i)
        stats.inline_tasks = len(node_list)
        stats.wall_s = time.perf_counter() - t_start
        return stats

    in_set = np.zeros(job.n_supernodes, dtype=bool)
    in_set[node_list] = True
    deps = {
        i: sum(1 for c in job.supernodes[i].children if in_set[c])
        for i in node_list
    }

    total = len(node_list)
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
            if parent >= 0 and in_set[parent] and state["error"] is None:
                deps[parent] -= 1
                if deps[parent] == 0:
                    submit(pool, parent, t1)
            state["finished"] += 1
            cond.notify()

    with ThreadPoolExecutor(max_workers=workers) as pool:
        with cond:
            now = time.perf_counter()
            for i in node_list:
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

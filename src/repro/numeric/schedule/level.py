"""Level-scheduled execution: etree level sets with a barrier per level.

The baseline scheduler from PR 2.  Supernodes grouped by height in the
assembly tree run concurrently within a level; a barrier separates
levels, so dependencies are trivially satisfied but one slow supernode
stalls its whole level.  Kept both as the reference for bit-identity
comparisons and because its fixed level-by-level sweep is the cheapest
dispatch loop for small or chain-shaped trees.

``run_level_scheduled`` keeps the original generic callable interface
(re-exported from :mod:`repro.numeric.engine` for back-compat) but now
drains each level with ``as_completed`` so the first worker failure
propagates promptly instead of after the whole level finishes.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, as_completed

import numpy as np

from repro.obs import span, telemetry

from .base import ScheduleStats, SupernodeJob, WorkerLanes


def run_level_scheduled(
    levels: Sequence[np.ndarray],
    n_supernodes: int,
    task: Callable[[int], None],
    workers: int,
    parallel_threshold: int = 2,
    trace: bool = True,
) -> int:
    """Run ``task`` over every supernode, level by level.

    Returns the number of tasks dispatched to pool workers.  Levels
    narrower than ``parallel_threshold`` run inline on the calling
    thread (pool dispatch costs more than it buys there).  A failing
    task raises as soon as its future completes — remaining futures in
    the level are cancelled rather than drained.
    """
    if workers <= 1:
        for i in range(n_supernodes):
            task(i)
        return 0

    traced = trace and telemetry.active()

    def traced_task(i: int) -> None:
        with span("numeric.supernode", detail=True, sn=i):
            task(i)

    pool_task = traced_task if traced else task
    dispatched = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for depth, level in enumerate(levels):
            with span("numeric.level", detail=True,
                      level=depth, width=len(level)):
                if len(level) < parallel_threshold:
                    for i in level:
                        task(int(i))
                    continue
                futures = [pool.submit(pool_task, int(i)) for i in level]
                dispatched += len(futures)
                try:
                    for future in as_completed(futures):
                        future.result()
                except BaseException:
                    for future in futures:
                        future.cancel()
                    raise
    return dispatched


def run_level(
    job: SupernodeJob, workers: int, parallel_threshold: int = 2
) -> ScheduleStats:
    """Level-scheduled run of a :class:`SupernodeJob`, with stats."""
    stats = ScheduleStats("level", workers)
    t_start = time.perf_counter()
    if workers <= 1:
        for i in range(job.n_supernodes):
            job.compute(i)
        stats.inline_tasks = job.n_supernodes
        stats.wall_s = time.perf_counter() - t_start
        return stats

    lanes = WorkerLanes()
    traced = telemetry.active()
    # The barrier start time of the level currently dispatching; pool
    # tasks read it to measure ready-to-running latency.  Safe because
    # the barrier guarantees no task of level L runs after L+1 starts.
    level_t0 = [t_start]

    def pool_task(i: int) -> None:
        t0 = time.perf_counter()
        stats.dispatch_latency_s.append(t0 - level_t0[0])
        if traced:
            with span("numeric.supernode", detail=True, sn=i):
                job.compute(i)
        else:
            job.compute(i)
        lanes.record(time.perf_counter() - t0)

    def inline_task(i: int) -> None:
        job.compute(i)
        stats.inline_tasks += 1

    dispatched = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for depth, level in enumerate(job.levels):
            with span("numeric.level", detail=True,
                      level=depth, width=len(level)):
                if len(level) < parallel_threshold:
                    for i in level:
                        inline_task(int(i))
                    continue
                level_t0[0] = time.perf_counter()
                stats.ready_depth.append(len(level))
                futures = [pool.submit(pool_task, int(i)) for i in level]
                dispatched += len(futures)
                try:
                    for future in as_completed(futures):
                        future.result()
                except BaseException:
                    for future in futures:
                        future.cancel()
                    raise
    stats.dispatched = dispatched
    stats.worker_busy_s = lanes.busy()
    stats.worker_tasks = lanes.tasks()
    stats.wall_s = time.perf_counter() - t_start
    return stats

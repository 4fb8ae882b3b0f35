"""Subtree-parallel numeric phase over worker *processes*.

Threads give real overlap only while NumPy's BLAS holds the GIL
released; the bushy bottom of the tree — thousands of small fronts —
is orchestration-bound Python where threads serialize.  This backend
sidesteps the GIL entirely: the elimination tree is carved into
independent subtrees (:mod:`repro.numeric.schedule.partition`), each
subtree is farmed to a forked worker process, and the factor blocks
plus each subtree root's boundary update matrix travel back through
one shared-memory segment.  The parent then finishes the (small) top
of the tree with the DAG scheduler in-process.

Transport is exact float64 copies and every supernode is still
computed by the unchanged ``SupernodeJob.compute`` body, so the
bit-identity invariant survives the process boundary.

Fork specifics: the job (symbolic analysis, assembly maps, input
values) is published via module globals *before* the pool forks, so
children inherit it copy-on-write — nothing is pickled.  Children
write through the inherited shared-memory mapping rather than
re-attaching by name, which keeps the resource tracker quiet.  When
fork is unavailable (non-POSIX start methods), the partition is
degenerate (< 2 subtrees), or we are already inside a daemonic pool
worker (daemons cannot fork children), the call falls back to the DAG
scheduler transparently.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro.obs import span, telemetry

from .base import ScheduleStats, SupernodeJob
from .dag import run_dag
from .partition import partition_subtrees

_ITEMSIZE = 8  # float64 transport throughout


@dataclass
class _ShmLayout:
    """Byte offsets of every array a worker writes into shared memory."""

    size: int = 0
    # supernode -> [(offset, shape), ...] for its stored factor arrays
    outputs: dict[int, list[tuple[int, tuple[int, ...]]]] = \
        field(default_factory=dict)
    # subtree root -> (offset, shape) of its boundary update matrix
    updates: dict[int, tuple[int, tuple[int, int]]] = \
        field(default_factory=dict)
    # supernode -> offset of its scalar channel slot
    scalars: dict[int, int] = field(default_factory=dict)
    # supernode -> offset of its task-timer busy-seconds slot
    busy: dict[int, int] = field(default_factory=dict)

    def reserve(self, shape: tuple[int, ...]) -> int:
        offset = self.size
        self.size += int(np.prod(shape)) * _ITEMSIZE
        return offset


def _build_layout(
    job: SupernodeJob, subtrees: list[np.ndarray]
) -> _ShmLayout:
    layout = _ShmLayout()
    for nodes in subtrees:
        for i in nodes:
            i = int(i)
            layout.outputs[i] = [
                (layout.reserve(shape), shape)
                for shape in job.output_shapes(i)
            ]
            layout.scalars[i] = layout.reserve((1,))
            layout.busy[i] = layout.reserve((1,))
        root = int(nodes[-1])
        sn = job.supernodes[root]
        if sn.parent >= 0 and sn.n_update_rows > 0:
            u = sn.n_update_rows
            layout.updates[root] = (layout.reserve((u, u)), (u, u))
    return layout


# Published before the pool forks; inherited copy-on-write by workers.
_FORK_JOB: SupernodeJob | None = None
_FORK_LAYOUT: _ShmLayout | None = None
_FORK_SHM: shared_memory.SharedMemory | None = None
_FORK_SUBTREES: list[np.ndarray] | None = None


def _worker_init() -> None:
    telemetry.init_worker()


def _shm_view(offset: int, shape: tuple[int, ...]) -> np.ndarray:
    return np.ndarray(shape, dtype=np.float64,
                      buffer=_FORK_SHM.buf, offset=offset)


def _run_subtree(part: int) -> dict:
    """Pool task: factor one subtree, write results into shared memory."""
    job, layout = _FORK_JOB, _FORK_LAYOUT
    nodes = _FORK_SUBTREES[part]
    t0 = time.perf_counter()
    traced = telemetry.active()
    for i in nodes:
        i = int(i)
        if traced:
            with span("numeric.supernode", detail=True,
                      sn=i, subtree=part):
                job.compute(i)
        else:
            job.compute(i)
    busy = time.perf_counter() - t0
    for i in nodes:
        i = int(i)
        for (offset, shape), arr in zip(
            layout.outputs[i], job.output_arrays(i)
        ):
            view = _shm_view(offset, shape)
            view[...] = arr
            del view
        scalar = _shm_view(layout.scalars[i], (1,))
        scalar[0] = job.scalar_output(i)
        del scalar
        slot = _shm_view(layout.busy[i], (1,))
        slot[0] = job.timer.busy[i]
        del slot
    root = int(nodes[-1])
    if root in layout.updates:
        offset, shape = layout.updates[root]
        view = _shm_view(offset, shape)
        view[...] = job.updates[root]
        del view
    return {"pid": os.getpid(), "busy_s": busy, "tasks": len(nodes)}


def run_procs(
    job: SupernodeJob, workers: int, parallel_threshold: int = 2
) -> ScheduleStats:
    """Subtree-parallel process run; falls back to DAG when not viable."""
    n = job.n_supernodes
    t_start = time.perf_counter()
    if workers <= 1 or n <= 1:
        stats = ScheduleStats("procs", workers)
        for i in range(n):
            job.compute(i)
        stats.inline_tasks = n
        stats.wall_s = time.perf_counter() - t_start
        return stats

    viable = (
        "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
    )
    if viable:
        flops = np.array(job.symbolic.supernode_flops(), dtype=float)
        subtrees, top = partition_subtrees(job.sn_parent, flops, workers)
        viable = len(subtrees) >= 2
    if not viable:
        stats = run_dag(job, workers)
        stats.scheduler = "procs"
        return stats

    layout = _build_layout(job, subtrees)
    shm = shared_memory.SharedMemory(create=True,
                                     size=max(layout.size, _ITEMSIZE))
    global _FORK_JOB, _FORK_LAYOUT, _FORK_SHM, _FORK_SUBTREES
    _FORK_JOB, _FORK_LAYOUT = job, layout
    _FORK_SHM, _FORK_SUBTREES = shm, subtrees
    try:
        ctx = multiprocessing.get_context("fork")
        # Heaviest subtrees first (longest-processing-time order) so the
        # pool balances uneven partitions.
        order = sorted(
            range(len(subtrees)),
            key=lambda k: -float(flops[subtrees[k]].sum()),
        )
        with ctx.Pool(min(workers, len(subtrees)),
                      initializer=_worker_init) as pool:
            results = pool.map(_run_subtree, order, chunksize=1)
        # Adopt worker-computed state from shared memory.
        for nodes in subtrees:
            for i in nodes:
                i = int(i)
                arrays = [
                    _shm_view(offset, shape).copy()
                    for offset, shape in layout.outputs[i]
                ]
                job.load_outputs(i, arrays)
                job.load_scalar(i, float(_shm_view(layout.scalars[i], (1,))[0]))
                job.timer.busy[i] = float(_shm_view(layout.busy[i], (1,))[0])
            root = int(nodes[-1])
            if root in layout.updates:
                offset, shape = layout.updates[root]
                job.updates[root] = _shm_view(offset, shape).copy()
    finally:
        _FORK_JOB = _FORK_LAYOUT = _FORK_SHM = _FORK_SUBTREES = None
        shm.close()
        shm.unlink()

    top_stats = run_dag(job, workers, nodes=top) if len(top) else None

    stats = ScheduleStats("procs", workers)
    stats.n_subtrees = len(subtrees)
    stats.top_tasks = int(len(top))
    stats.dispatched = int(sum(len(nodes) for nodes in subtrees))
    # Several subtrees may have run on the same pool process; report
    # busy/task lanes per worker process, not per subtree.
    by_pid: dict[int, list[float]] = {}
    for r in results:
        lane = by_pid.setdefault(r["pid"], [0.0, 0])
        lane[0] += r["busy_s"]
        lane[1] += r["tasks"]
    stats.worker_busy_s = [lane[0] for lane in by_pid.values()]
    stats.worker_tasks = [int(lane[1]) for lane in by_pid.values()]
    stats.ready_depth = [len(subtrees)]
    if top_stats is not None:
        stats.dispatched += top_stats.dispatched
        stats.inline_tasks = top_stats.inline_tasks
        stats.ready_depth.extend(top_stats.ready_depth)
        stats.dispatch_latency_s.extend(top_stats.dispatch_latency_s)
    stats.wall_s = time.perf_counter() - t_start
    return stats

"""Multifrontal execution engine: pattern-cached contexts + metrics.

This module is the machinery shared by :func:`multifrontal_cholesky` and
:func:`multifrontal_lu`:

* **Pattern-cached numeric context** (:class:`NumericContext`): for a fixed
  symbolic analysis, the permutation of A's values into the permuted matrix
  and the scatter of those values into every supernode's frontal matrix are
  pure functions of the nonzero pattern.  They are resolved *once* into
  flat index maps and cached on the symbolic object, so each numeric
  (re)factorization assembles every front with two fancy-indexing
  operations instead of per-entry Python loops — the amortized-analysis
  serving pattern of CKTSO-style circuit simulation.

* **Scheduled parallel traversal**: :func:`run_factor_job`, the one
  driver both factorizations share, hands the per-supernode tasks to
  :func:`repro.numeric.schedule.run_scheduled` (dependence-count dispatch
  on ``workers`` threads, bit-identical for every worker count).

* **Metrics export** (:func:`export_factor_metrics`): kernel FLOP rates,
  level widths, scheduler evidence (ready-queue depth, dispatch latency,
  per-worker busy/idle), and worker occupancy land in the process-global
  :func:`repro.obs.global_registry` so run artifacts (and
  ``repro report --diff``) make numeric-engine regressions visible;
  the same evidence is returned as the attribution dict each factor
  carries.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro.numeric.schedule import ScheduleStats, SupernodeJob, run_scheduled
from repro.numeric.tuning import resolve_block_size, resolve_workers
from repro.obs.metrics import global_registry
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import SymbolicFactorization
from repro.symbolic.etree import etree_level_sets

__all__ = [
    "NumericContext",
    "export_factor_metrics",
    "numeric_context",
    "row_permutation_data_map",
    "run_factor_job",
]


def _as_int_index(data: np.ndarray) -> np.ndarray:
    return np.asarray(data, dtype=np.int64)


def _arange_csc(n_rows: int, n_cols: int, rows: np.ndarray,
                cols: np.ndarray) -> CSCMatrix:
    """CSC of the given pattern whose values are the source entry indices.

    Entry values are ``arange(nnz)`` floats; after conversion, ``.data``
    tells for every CSC slot which source entry landed there (exact for any
    nnz < 2**53; patterns here are orders of magnitude smaller).
    """
    vals = np.arange(len(rows), dtype=np.float64)
    return CSCMatrix.from_coo(COOMatrix(n_rows, n_cols, rows, cols, vals))


def row_permutation_data_map(matrix: CSCMatrix,
                             row_perm: np.ndarray) -> np.ndarray:
    """Index map for applying a row permutation to a fixed CSC pattern.

    Returns ``idx`` such that for any matrix ``M`` with this pattern, the
    row-permuted matrix (rows mapped through ``inverse(row_perm)``, as
    :func:`repro.ordering.pivoting.apply_static_pivoting` builds it) has
    ``data == M.data[idx]`` on its own fixed pattern.
    """
    inverse = np.empty_like(row_perm)
    inverse[row_perm] = np.arange(len(row_perm))
    coo = matrix.to_coo()
    tagged = _arange_csc(matrix.n_rows, matrix.n_cols,
                         inverse[coo.rows], coo.cols)
    return _as_int_index(tagged.data)


class NumericContext:
    """Precomputed per-pattern index maps for fast numeric factorization.

    Built once per (symbolic analysis, matrix pattern) and cached on the
    symbolic object; every subsequent factorization with the same pattern
    reuses the maps, turning front assembly into pure NumPy gathers.

    Attributes:
        perm_data: ``permuted.data == matrix.data[perm_data]``.
        flat_pos / data_idx: per-supernode scatter maps;
            ``front.flat[flat_pos[i]] = permuted_data[data_idx[i]]``
            initializes supernode ``i``'s front from A's entries (both the
            L and — for LU — the U part).
        sn_parent: supernode parent array (``-1`` for roots) — the task
            dependence structure the scheduler consumes.
        levels: supernode level sets (leaves first): the available
            parallelism reported as ``attribution["level_widths"]`` and
            ``numeric.levels.*``.
    """

    def __init__(self, symbolic: SymbolicFactorization,
                 matrix: CSCMatrix) -> None:
        self.symbolic = symbolic
        if matrix.n_rows != symbolic.n or matrix.n_cols != symbolic.n:
            raise ValueError(
                "matrix pattern does not match the symbolic analysis; "
                "run symbolic_factorize on this matrix first"
            )
        self.src_indptr = matrix.indptr.copy()
        self.src_indices = matrix.indices.copy()

        n = matrix.n_rows
        perm = symbolic.perm
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(n)
        coo = matrix.to_coo()
        tagged = _arange_csc(n, n, inverse[coo.rows], inverse[coo.cols])
        analyzed = symbolic.permuted
        if not (np.array_equal(tagged.indptr, analyzed.indptr)
                and np.array_equal(tagged.indices, analyzed.indices)):
            raise ValueError(
                "matrix pattern does not match the symbolic analysis; "
                "run symbolic_factorize on this matrix first"
            )
        self.perm_data = _as_int_index(tagged.data)

        tree = symbolic.tree
        self.sn_parent = np.array([sn.parent for sn in tree.supernodes],
                                  dtype=np.int64)
        self.levels = etree_level_sets(self.sn_parent)

        lower = self._front_maps(analyzed.indptr, analyzed.indices,
                                 upper=False)
        self.flat_pos = [flat for flat, _ in lower]
        self.data_idx = [slot for _, slot in lower]
        if symbolic.kind == "lu":
            # The U part: rows of the permuted matrix are the "columns"
            # of its tagged transpose, whose data slots carry the
            # permuted-data index.
            entries = analyzed.to_coo()
            t = _arange_csc(n, n, entries.cols, entries.rows)
            t_src = _as_int_index(t.data)
            for i, (flat, slot) in enumerate(
                    self._front_maps(t.indptr, t.indices, upper=True)):
                self.flat_pos[i] = np.concatenate([self.flat_pos[i], flat])
                self.data_idx[i] = np.concatenate(
                    [self.data_idx[i], t_src[slot]])

    # -- construction helpers ------------------------------------------------

    def _front_maps(self, indptr: np.ndarray, indices: np.ndarray,
                    upper: bool) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-supernode (front flat position, CSC slot) pairs for the
        entries of the supernode's columns that fall inside its front:
        one ``searchsorted`` per supernode over its contiguous CSC slice.

        ``upper=False`` takes A's at-or-below-diagonal entries (the L
        part of every front, column ``local`` of the front);
        ``upper=True`` takes a transposed CSC's strictly-beyond-diagonal
        entries (the U part of LU fronts, row ``local``).
        """
        cols = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64),
                         np.diff(indptr))
        wanted = indices > cols if upper else indices >= cols
        maps = []
        for sn in self.symbolic.tree.supernodes:
            size = sn.front_size
            lo, hi = indptr[sn.first_col], indptr[sn.last_col + 1]
            slot = lo + np.flatnonzero(wanted[lo:hi])
            rows = indices[slot]
            pos = np.searchsorted(sn.rows, rows)
            ok = (pos < size) & (sn.rows[np.minimum(pos, size - 1)] == rows)
            pos, slot = pos[ok], slot[ok]
            local = cols[slot] - sn.first_col
            maps.append((local * size + pos if upper else pos * size + local,
                         slot))
        return maps

    # -- queries -------------------------------------------------------------

    def matches(self, matrix: CSCMatrix) -> bool:
        """True if this context was built for ``matrix``'s pattern."""
        return (
            np.array_equal(self.src_indptr, matrix.indptr)
            and np.array_equal(self.src_indices, matrix.indices)
        )

    def permuted_data(self, matrix: CSCMatrix) -> np.ndarray:
        """Values of ``matrix.permuted(symbolic.perm)`` without the
        COO round trip."""
        return matrix.data[self.perm_data]


def numeric_context(symbolic: SymbolicFactorization,
                    matrix: CSCMatrix) -> NumericContext:
    """Get (or build and cache) the numeric context for a pattern."""
    ctx = getattr(symbolic, "_numeric_ctx", None)
    if ctx is None or not ctx.matches(matrix):
        ctx = NumericContext(symbolic, matrix)
        symbolic._numeric_ctx = ctx
    return ctx


# -- attribution and metrics export --------------------------------------------


def export_factor_metrics(
    symbolic: SymbolicFactorization,
    seconds: float,
    block_size: int,
    levels: list[np.ndarray],
    busy_seconds: float,
    stats: ScheduleStats,
) -> dict:
    """Report one numeric factorization into the global metrics registry
    and return its attribution view: the level-width series (available
    parallelism over the elimination-tree schedule), scheduler evidence
    (ready-queue depth, dispatch latency, per-worker busy/idle lanes),
    worker occupancy, and wall/busy seconds — the software-engine
    analogue of the simulator's cycle accounting, carried by the factor
    it describes (``CholeskyFactor.attribution`` /
    ``LUFactors.attribution``)."""
    workers = stats.workers
    parallel_tasks = stats.dispatched
    widths = [len(level) for level in levels]
    n_sn = sum(widths)
    parallel = workers > 1 and seconds > 0.0
    occupancy = (min(1.0, busy_seconds / (seconds * workers))
                 if parallel else 1.0)
    attribution = {
        "level_widths": widths,
        # mean runnable supernodes per level — the schedule's available
        # parallelism, independent of worker count
        "avg_parallelism": (n_sn / len(levels)) if levels else 0.0,
        "serial_levels": sum(1 for w in widths if w <= 1),
        "workers": workers,
        "parallel_tasks": parallel_tasks,
        "seconds": seconds,
        "busy_seconds": busy_seconds,
        "occupancy": occupancy,
        "schedule": stats.summary(),
    }
    reg = global_registry()
    reg.counter("numeric.factor.count").inc()
    reg.counter("numeric.factor.seconds").inc(seconds)
    reg.counter("numeric.factor.flops").inc(symbolic.flops)
    if seconds > 0.0:
        reg.gauge("numeric.factor.gflops_per_s").set(
            symbolic.flops / seconds / 1e9
        )
    reg.gauge("numeric.factor.block_size").set(block_size)
    reg.gauge("numeric.factor.workers").set(workers)
    reg.counter("numeric.parallel.tasks").inc(parallel_tasks)
    if parallel:
        reg.gauge("numeric.parallel.occupancy").set(occupancy)
    reg.gauge("numeric.levels.count").set(len(levels))
    width_hist = reg.histogram("numeric.levels.width")
    for level in levels:
        width_hist.observe(len(level))

    sched = attribution["schedule"]
    reg.counter("numeric.sched.tasks").inc(
        stats.dispatched + stats.inline_tasks
    )
    reg.gauge("numeric.sched.ready_depth.mean").set(
        sched["ready_depth"]["mean"]
    )
    reg.gauge("numeric.sched.ready_depth.max").set(
        sched["ready_depth"]["max"]
    )
    reg.gauge("numeric.sched.dispatch_latency_ms.mean").set(
        sched["dispatch_latency_ms"]["mean"]
    )
    reg.gauge("numeric.sched.dispatch_latency_ms.max").set(
        sched["dispatch_latency_ms"]["max"]
    )
    reg.gauge("numeric.sched.idle_s").set(sched["idle_s"])
    reg.gauge("numeric.sched.worker_tasks.imbalance").set(
        sched["task_imbalance"]
    )
    return attribution


def run_factor_job(
    matrix: CSCMatrix,
    symbolic: SymbolicFactorization,
    make_job: Callable[[NumericContext, np.ndarray, int], SupernodeJob],
    workers: int | None,
    block_size: int | None,
) -> tuple[SupernodeJob, dict]:
    """The numeric driver shared by Cholesky and LU: resolve (and
    range-check) the tuning knobs, build the job over the pattern-cached
    context (``make_job(ctx, permuted_data, block)``), run it on
    ``workers`` threads, check every update matrix was consumed, and
    export the metrics.  Returns the finished job and its attribution
    view."""
    workers = resolve_workers(workers)
    block = resolve_block_size(block_size)
    t_start = time.perf_counter()

    ctx = numeric_context(symbolic, matrix)
    job = make_job(ctx, ctx.permuted_data(matrix), block)
    stats = run_scheduled(job, workers)
    job.check_consumed()
    attribution = export_factor_metrics(
        symbolic, time.perf_counter() - t_start, block,
        ctx.levels, job.timer.total(), stats,
    )
    return job, attribution

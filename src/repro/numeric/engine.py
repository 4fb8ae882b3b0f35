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
        front_pos / data_idx: per-supernode scatter maps;
            ``buf[front_pos[i]] = permuted_data[data_idx[i]]`` initializes
            supernode ``i``'s pivot panel ``P`` and (LU) pivot rows ``R``
            from A's entries, ``buf`` being ``P`` then ``R`` flattened
            (both the L and — for LU — the U part; see
            :meth:`SupernodeJob.compute`).
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

        parts = [self._front_maps(analyzed.indptr, analyzed.indices,
                                  upper=False)]
        if symbolic.kind == "lu":
            # The U part: rows of the permuted matrix are the "columns"
            # of its tagged transpose, whose data slots carry the
            # permuted-data index.
            entries = analyzed.to_coo()
            t = _arange_csc(n, n, entries.cols, entries.rows)
            sn_u, flat_u, slot_u = self._front_maps(t.indptr, t.indices,
                                                    upper=True)
            parts.append((sn_u, flat_u, _as_int_index(t.data)[slot_u]))
        # Stable by supernode: each supernode's L entries, then its U's.
        sn_of, flat, slot = (np.concatenate(col) for col in zip(*parts))
        order = np.argsort(sn_of, kind="stable")
        cuts = np.searchsorted(sn_of[order], np.arange(1, tree.n_supernodes))
        self.front_pos = np.split(flat[order], cuts)
        self.data_idx = np.split(slot[order], cuts)

    # -- construction helpers ------------------------------------------------

    def _front_maps(self, indptr: np.ndarray, indices: np.ndarray,
                    upper: bool) -> tuple[np.ndarray, ...]:
        """(supernode, ``front_pos`` position, CSC slot) of every entry
        that falls inside the front of the supernode owning its column,
        in slot order: one ``searchsorted`` over all supernodes' rows,
        keyed by ``supernode * n + row``.

        ``upper=False`` takes A's at-or-below-diagonal entries (the L
        part of every front, column ``local`` of ``P``); ``upper=True``
        takes a transposed CSC's strictly-beyond-diagonal entries (the U
        part of LU fronts, row ``local`` of ``P`` or, past the pivot
        columns, of ``R``).
        """
        supernodes = self.symbolic.tree.supernodes
        n = len(indptr) - 1
        size, k, first = np.array(
            [(sn.front_size, sn.n_cols, sn.first_col) for sn in supernodes],
            dtype=np.int64).reshape(-1, 3).T
        start = np.cumsum(size) - size
        keys = np.concatenate([sn.rows for sn in supernodes]) + np.repeat(
            np.arange(len(supernodes), dtype=np.int64) * n, size)
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        slot = np.flatnonzero(indices > cols if upper else indices >= cols)
        sn_of = self.symbolic.tree.col_to_sn[cols[slot]]
        key = sn_of * n + indices[slot]
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        ok = keys[at] == key
        slot, sn_of = slot[ok], sn_of[ok]
        pos = at[ok] - start[sn_of]
        local = cols[slot] - first[sn_of]
        size, k = size[sn_of], k[sn_of]
        if upper:
            flat = np.where(pos < k, local * k + pos,
                            size * k + local * (size - k) + pos - k)
        else:
            flat = pos * k + local
        return sn_of, flat, slot

    @property
    def flat_pos(self) -> list[np.ndarray]:
        """``front_pos`` as square-front positions (``row * size + col``):
        the layout-independent statement of the same maps, which
        ``tests/test_symbolic_golden.py`` holds equal to the oracle's."""
        out = []
        for sn, flat in zip(self.symbolic.tree.supernodes, self.front_pos):
            size, k = sn.front_size, sn.n_cols
            in_r = flat >= size * k
            row, col = np.divmod(np.where(in_r, flat - size * k, flat),
                                 np.where(in_r, size - k, k))
            out.append(row * size + col + in_r * k)
        return out

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
    workers: int | None,
    block_size: int | None,
    perturb: float | None = None,
) -> tuple[SupernodeJob, dict]:
    """The numeric driver shared by Cholesky and LU: resolve (and
    range-check) the tuning knobs, build the job over the pattern-cached
    context (``perturb`` is ``None`` for Cholesky, the static-pivoting
    threshold for LU), run it on ``workers`` threads, check every update
    matrix was consumed, and export the metrics.  Returns the finished
    job and its attribution view."""
    workers = resolve_workers(workers)
    block = resolve_block_size(block_size)
    t_start = time.perf_counter()

    ctx = numeric_context(symbolic, matrix)
    job = SupernodeJob(ctx, ctx.permuted_data(matrix), block, perturb)
    stats = run_scheduled(job, workers)
    job.check_consumed()
    attribution = export_factor_metrics(
        symbolic, time.perf_counter() - t_start, block,
        ctx.levels, job.timer.total(), stats,
    )
    return job, attribution

"""Multifrontal execution engine: pattern-cached contexts + metrics.

This module is the machinery shared by :func:`multifrontal_cholesky` and
:func:`multifrontal_lu`:

* **Pattern-cached numeric context** (:class:`NumericContext`): for a fixed
  symbolic analysis, every index computation of the numeric phase is a
  pure function of the nonzero pattern — the permutation of A's values,
  their scatter into every supernode's ``P`` / ``R``, where each supernode
  sits in the one factor buffer, and (for *grouped* supernodes, fronts of
  at most :data:`GROUP_FRONT_MAX` rows) where every entry of every
  child's update block adds into its parent.  They are resolved *once*
  into flat index maps and cached on the symbolic object, so a numeric
  (re)factorization is one scatter of A plus, per grouped supernode, one
  ``np.add.at`` and the dense kernels — the amortized-analysis serving
  pattern of CKTSO-style circuit simulation.

* **Scheduled parallel traversal**: :func:`run_factor_job`, the one
  driver both factorizations share, hands the job's tasks — whole
  subtrees of grouped supernodes, or one larger supernode — to
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

from repro.numeric.schedule import (
    GroupTasks,
    ScheduleStats,
    SupernodeJob,
    run_scheduled,
)
from repro.numeric.tuning import resolve_block_size, resolve_workers
from repro.obs.metrics import global_registry
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import SymbolicFactorization
from repro.symbolic.etree import etree_level_sets

__all__ = [
    "GROUP_FRONT_MAX",
    "NumericContext",
    "export_factor_metrics",
    "numeric_context",
    "row_permutation_data_map",
    "run_factor_job",
]

#: Largest front (``k + m`` rows) of a *grouped* supernode.  A grouped
#: parent's extend-add maps are cached in its :class:`NumericContext`
#: and its children's update blocks sit side by side in one arena; a
#: maximal subtree of grouped supernodes is one scheduler task.  Fixed by
#: the sweep in docs/PERFORMANCE.md ("Grouped small supernodes"), like
#: ``DEFAULT_BLOCK_SIZE``; it moves no bit of any factor or solution.
GROUP_FRONT_MAX = 128


def _csc_order(n_rows: int, n_cols: int, rows: np.ndarray,
               cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """The CSC pattern ``(indptr, indices)`` of the distinct entries
    ``(rows, cols)``, and ``order``: for every CSC slot, the entry that
    lands there (one sort by ``col * n_rows + row``)."""
    order = np.argsort(cols * n_rows + rows)
    indptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=indptr[1:])
    return indptr, rows[order], order


def _entries(matrix: CSCMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of every stored entry, in slot order."""
    return matrix.indices, np.repeat(np.arange(matrix.n_cols),
                                     np.diff(matrix.indptr))


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
    rows, cols = _entries(matrix)
    return _csc_order(matrix.n_rows, matrix.n_cols, inverse[rows], cols)[2]


class NumericContext:
    """Precomputed per-pattern index maps for fast numeric factorization.

    Built once per (symbolic analysis, matrix pattern) and cached on the
    symbolic object; every subsequent factorization with the same pattern
    reuses the maps, so the numeric phase does no index arithmetic of its
    own — except the extend-add offsets of parents larger than
    :data:`GROUP_FRONT_MAX`, computed on the fly (caching them would cost
    memory in proportion to the fronts; see
    :meth:`~repro.numeric.schedule.SupernodeJob._extend_add`).

    Attributes:
        perm_data: ``permuted.data == matrix.data[perm_data]``.
        pr_off: supernode ``i``'s pivot panel ``P`` then (LU) pivot rows
            ``R``, each C-ordered, are ``buf[pr_off[i]:pr_off[i + 1]]`` of
            the one factor buffer ``buf`` (see :class:`SupernodeJob`).
        dst / src: A's scatter into that buffer,
            ``buf[dst] = permuted_data[src]`` (both the L and — for LU —
            the U part of every front).
        arena_len / layout: the update blocks ``C`` of a grouped
            parent's children lie side by side, children ascending, in one
            arena of ``arena_len[parent]`` values (0: not grouped, or no
            child passes one up); ``layout[i]`` is supernode ``i``'s
            ``(k, m, P|R start, R start, end, offset of its C in its
            parent's arena or -1, parent)``.
        kids / ea_maps: per supernode, its children that pass an update
            block up, and — for a grouped parent — its cached extend-add
            map: for every entry of its arena, where it adds into the
            parent's front (``None`` otherwise; see
            :meth:`_extend_add_maps`).
        rows / pivots: per supernode, its (read-only) front rows and
            the slice of its pivot rows, for the stored factor.
        task_bounds / task_parent: the scheduler's tasks — task ``t`` is
            supernodes ``task_bounds[t]`` .. ``task_bounds[t + 1] - 1``,
            a maximal subtree of grouped supernodes or one ungrouped
            supernode — and the task forest.
        sn_parent: supernode parent array (``-1`` for roots).
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
        rows, cols = _entries(matrix)
        indptr, indices, self.perm_data = _csc_order(
            n, n, inverse[rows], inverse[cols])
        analyzed = symbolic.permuted
        if not (np.array_equal(indptr, analyzed.indptr)
                and np.array_equal(indices, analyzed.indices)):
            raise ValueError(
                "matrix pattern does not match the symbolic analysis; "
                "run symbolic_factorize on this matrix first"
            )

        tree = symbolic.tree
        sns = tree.supernodes
        n_sn = tree.n_supernodes
        self.sn_parent = np.array([sn.parent for sn in sns], dtype=np.int64)
        self.levels = etree_level_sets(self.sn_parent)
        lu = symbolic.kind == "lu"
        self._size, self._k, self._first = np.array(
            [(sn.front_size, sn.n_cols, sn.first_col) for sn in sns],
            dtype=np.int64).reshape(-1, 3).T
        k, m = self._k, self._size - self._k
        self._m = m
        pr_len = self._size * k + (k * m if lu else 0)
        self.pr_off = np.concatenate(([0], np.cumsum(pr_len)))

        parts = [self._front_maps(analyzed.indptr, analyzed.indices,
                                  upper=False)]
        if lu:
            # The U part: rows of the permuted matrix are the "columns"
            # of its transpose, whose slot order says which permuted-data
            # slot each one is.
            rows, cols = _entries(analyzed)
            t_indptr, t_indices, t_order = _csc_order(n, n, cols, rows)
            sn_u, flat_u, slot_u = self._front_maps(t_indptr, t_indices,
                                                    upper=True)
            parts.append((sn_u, flat_u, t_order[slot_u]))
        sn_of, flat, slot = (np.concatenate(col) for col in zip(*parts))
        self.dst = flat + self.pr_off[sn_of]
        self.src = slot

        # Grouped parents: their children's C blocks side by side in one
        # arena per parent, children ascending, and the extend-add maps of
        # all of them built in one vectorised pass over the concatenation
        # of those arenas.
        grouped = self._size <= GROUP_FRONT_MAX
        m_list = m.tolist()
        self.kids = [[c for c in sn.children if m_list[c]] for sn in sns]
        in_arena = np.array([c for p in np.flatnonzero(grouped)
                             for c in self.kids[p]], dtype=np.int64)
        blocks = m[in_arena] ** 2
        c_off = np.cumsum(blocks) - blocks
        self.arena_len = [0] * n_sn
        self.ea_maps: list[np.ndarray | None] = [None] * n_sn
        at = np.full(n_sn, -1, dtype=np.int64)
        if len(in_arena):
            dst = self._extend_add_maps(in_arena)
            # Cut the concatenation where each parent's arena starts; a
            # child's offset is relative to its parent's arena.
            par = self.sn_parent[in_arena]
            first_kid = np.flatnonzero(np.diff(par, prepend=-1))
            starts = c_off[first_kid]
            at[in_arena] = c_off - np.repeat(starts, np.diff(
                np.append(first_kid, len(in_arena))))
            for p, a, b in zip(par[first_kid].tolist(), starts.tolist(),
                               np.append(starts[1:], len(dst)).tolist()):
                self.arena_len[p] = b - a
                self.ea_maps[p] = dst[a:b]

        lo, hi = self.pr_off[:-1], self.pr_off[1:]
        self.layout = list(zip(k.tolist(), m_list, lo.tolist(),
                               (lo + self._size * k).tolist(), hi.tolist(),
                               at.tolist(), self.sn_parent.tolist()))
        self.rows = [sn.rows.view() for sn in sns]
        for rows in self.rows:
            rows.flags.writeable = False
        self.pivots = [slice(sn.first_col, sn.last_col + 1) for sn in sns]
        self.task_bounds, self.task_parent = self._tasks(grouped)

    # -- construction helpers ------------------------------------------------

    def _front_maps(self, indptr: np.ndarray, indices: np.ndarray,
                    upper: bool) -> tuple[np.ndarray, ...]:
        """(supernode, position in its ``P`` | ``R``, CSC slot) of every
        entry that falls inside the front of the supernode owning its
        column, in slot order: one ``searchsorted`` over all supernodes'
        rows, keyed by ``supernode * n + row``.

        ``upper=False`` takes A's at-or-below-diagonal entries (the L
        part of every front, column ``local`` of ``P``); ``upper=True``
        takes a transposed CSC's strictly-beyond-diagonal entries (the U
        part of LU fronts, row ``local`` of ``P`` or, past the pivot
        columns, of ``R``).
        """
        supernodes = self.symbolic.tree.supernodes
        n = len(indptr) - 1
        size, k, first = self._size, self._k, self._first
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

    def _tasks(self, grouped: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Task bounds and task forest: a supernode whose whole subtree
        is grouped belongs to the task of its highest such ancestor;
        every other supernode is a task of its own.  Subtrees are
        contiguous index ranges ending at their root (postorder)."""
        parent = self.sn_parent
        n_sn = len(parent)
        first = list(range(n_sn))       # lowest index in each subtree
        for i, p in enumerate(parent.tolist()):
            if p >= 0 and first[i] < first[p]:
                first[p] = first[i]
        first = np.array(first, dtype=np.int64)
        ungrouped = np.concatenate(([0], np.cumsum(~grouped)))
        small = ungrouped[1:] == ungrouped[first]
        has_parent = parent >= 0
        top = small.copy()
        top[has_parent] &= ~small[parent[has_parent]]
        starts = np.sort(np.concatenate((first[top],
                                         np.flatnonzero(~small))))
        bounds = np.append(starts, n_sn)
        task_of = np.searchsorted(starts, np.arange(n_sn), side="right") - 1
        root_parent = parent[bounds[1:] - 1]
        return bounds, np.where(root_parent >= 0, task_of[root_parent], -1)

    # -- extend-add maps -----------------------------------------------------

    def _extend_add_maps(self, kids: np.ndarray) -> np.ndarray:
        """Where every entry of the update blocks ``C`` of ``kids`` —
        flattened and concatenated in the order of ``kids`` — adds into
        its parent's front, as a position in the flattened workspace
        ``[P | R | C]`` (``size x k``, ``k x m``, ``m x m``; for Cholesky
        ``R`` is scratch that nothing reads).  One vectorised pass over
        all kids.

        A child's sorted positions ``pos`` in the parent's front split at
        the parent's first update row: entry ``(a, b)`` goes to ``P`` at
        ``(pos[a], pos[b])`` when ``pos[b]`` is a pivot column, else to
        ``R`` at ``(pos[a], pos[b] - k)`` when ``pos[a]`` is a pivot row,
        else to ``C`` at ``(pos[a] - k, pos[b] - k)`` — the offsets
        :meth:`SupernodeJob._extend_add` computes on the fly for parents
        too large to be grouped.  Since ``pos`` is sorted, each row of a
        child's ``C`` is two runs (``P``, then ``R`` or ``C``) whose
        positions are a per-run base plus ``pos``.
        """
        child_maps = self.symbolic.tree.child_maps
        n_rows = self._m[kids]
        pos = np.concatenate([child_maps[c] for c in kids.tolist()])
        # Per row of every C: its kid's first index into ``pos`` (its
        # columns), its length, and the parent's shape.
        row_kid = np.repeat(np.arange(len(kids)), n_rows)
        kid_pos0 = np.cumsum(n_rows) - n_rows
        pos0, length = kid_pos0[row_kid], n_rows[row_kid]
        par = self.sn_parent[kids][row_kid]
        k, m, size = self._k[par], self._m[par], self._size[par]
        top = pos < k                           # a pivot row of the parent
        s = np.add.reduceat(top, kid_pos0, dtype=np.int64)[row_kid]
        right_base = np.where(top, size * k + pos * m,
                              size * k + k * m + (pos - k) * m) - k
        # Runs row by row — P run, right run — are concatenation order.
        n = np.stack((s, length - s), axis=1).reshape(-1)
        col0 = np.stack((pos0, pos0 + s), axis=1).reshape(-1)
        base = np.stack((pos * k, right_base), axis=1).reshape(-1)
        start = np.cumsum(n) - n
        idx = np.repeat(col0 - start, n)        # in place: two entry-long
        idx += np.arange(len(idx))              # arrays at a time
        dst = pos[idx]
        del idx
        dst += np.repeat(base, n)
        return dst

    @property
    def n_tasks(self) -> int:
        """Number of scheduler tasks (see ``task_bounds``)."""
        return len(self.task_parent)

    def _per_supernode(self, values: np.ndarray) -> list[np.ndarray]:
        """``values`` (aligned with ``dst``) split by supernode, each
        supernode's L entries before its U entries."""
        sn_of = np.searchsorted(self.pr_off, self.dst, side="right") - 1
        order = np.argsort(sn_of, kind="stable")
        cuts = np.searchsorted(sn_of[order], np.arange(1, len(self._k)))
        return np.split(values[order], cuts)

    @property
    def data_idx(self) -> list[np.ndarray]:
        """``src`` split by supernode (the per-supernode scatter maps)."""
        return self._per_supernode(self.src)

    @property
    def flat_pos(self) -> list[np.ndarray]:
        """``dst`` split by supernode as square-front positions
        (``row * size + col``): the layout-independent statement of the
        same maps, which ``tests/test_symbolic_golden.py`` holds equal to
        the oracle's."""
        sn_of = np.searchsorted(self.pr_off, self.dst, side="right") - 1
        size, k = self._size[sn_of], self._k[sn_of]
        flat = self.dst - self.pr_off[sn_of]
        in_r = flat >= size * k
        row, col = np.divmod(np.where(in_r, flat - size * k, flat),
                             np.where(in_r, size - k, k))
        return self._per_supernode(row * size + col + in_r * k)

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
    threshold for LU), run its tasks on ``workers`` threads, check every
    update matrix was consumed, and export the metrics.  Returns the
    finished job and its attribution view."""
    workers = resolve_workers(workers)
    block = resolve_block_size(block_size)
    t_start = time.perf_counter()

    ctx = numeric_context(symbolic, matrix)
    job = SupernodeJob(ctx, ctx.permuted_data(matrix), block, perturb)
    tasks = GroupTasks(job, ctx.task_bounds, ctx.task_parent)
    stats = run_scheduled(tasks, workers)
    job.check_consumed()
    attribution = export_factor_metrics(
        symbolic, time.perf_counter() - t_start, block,
        ctx.levels, float(tasks.busy.sum()), stats,
    )
    return job, attribution

"""Multifrontal execution engine: pattern-cached contexts, the factor,
metrics.

This module is the machinery shared by :func:`multifrontal_cholesky` and
:func:`multifrontal_lu`:

* **Execution supernodes** (:func:`execution_tree`): the engine runs on
  its own assembly tree, the symbolic one with small supernodes merged
  into their parents by the relaxed-amalgamation rule of
  :func:`repro.symbolic.supernodes.amalgamate` under the constants
  :data:`MERGE_WIDTH` / :data:`MERGE_RATIO` / :data:`MERGE_FRONT`.
  Fewer, larger fronts mean fewer kernel calls per factorization and
  per solve; the symbolic analysis (and the simulator reading it) keeps
  the partition tuned for the paper's hardware.

* **Pattern-cached numeric context** (:class:`NumericContext`): for a fixed
  symbolic analysis, every index computation of the numeric phase is a
  pure function of the nonzero pattern — the permutation of A's values,
  their scatter into every supernode's ``P`` / ``R``, where each supernode
  sits in the one factor buffer, and (for *grouped* supernodes, fronts of
  at most :data:`GROUP_FRONT_MAX` rows) where every entry of every
  child's update block adds into its parent.  They are resolved *once*
  into flat index maps and cached on the symbolic object, with the
  compiled core's view of them (:attr:`NumericContext.c`), so a numeric
  (re)factorization is one scatter of A plus, per grouped supernode, one
  pass over its map and the dense kernels — the amortized-analysis
  serving pattern of CKTSO-style circuit simulation.

* **Scheduled parallel traversal**: :func:`run_factor_job`, the one
  driver both factorizations share, hands the job's tasks — whole
  subtrees of grouped supernodes, or one larger supernode, each one
  GIL-free call into the compiled core (:mod:`repro.numeric.compiled`) —
  to :func:`repro.numeric.schedule.run_scheduled` (dependence-count
  dispatch on ``workers`` threads, bit-identical for every worker
  count).

* **One factor type** (:class:`Factor`): what both factorizations
  return — the factor buffer and its per-supernode fronts, and the one
  fronts-to-CSC read-back (:func:`fronts_to_csc`) that the
  simulator's functional executor shares.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.numeric.compiled import Context
from repro.numeric.schedule import FactorTasks, ScheduleStats, run_scheduled
from repro.numeric.tuning import resolve_block_size, resolve_workers
from repro.obs.metrics import global_registry
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import SymbolicFactorization
from repro.symbolic.assembly import AssemblyTree, build_assembly_tree
from repro.symbolic.etree import etree_level_sets
from repro.symbolic.supernodes import coarsen

__all__ = [
    "Factor",
    "GROUP_FRONT_MAX",
    "MERGE_FRONT",
    "MERGE_RATIO",
    "MERGE_WIDTH",
    "NumericContext",
    "execution_tree",
    "export_factor_metrics",
    "fronts_to_csc",
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

#: The execution tree's merge rule (:func:`execution_tree`): a child of at
#: most ``MERGE_WIDTH`` columns merges when it adds at most a
#: ``MERGE_RATIO`` share of explicit zeros to the merged front, and any
#: child merges when the merged front has at most ``MERGE_FRONT`` rows.
#: Fixed by the sweep in docs/PERFORMANCE.md ("Execution supernodes"),
#: like ``GROUP_FRONT_MAX``.  Unlike it they move bits: a merged front
#: sums in another order.
MERGE_WIDTH = 16
MERGE_RATIO = 0.3
MERGE_FRONT = 64


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
    :data:`GROUP_FRONT_MAX`, computed on the fly by the compiled core
    (caching them would cost memory in proportion to the fronts).

    Attributes:
        tree: the assembly tree the maps are built on — the analysis's
            own by default; :func:`numeric_context` passes its
            :func:`execution_tree`.
        perm_data: ``permuted.data == matrix.data[perm_data]``.
        pr_off: supernode ``i``'s pivot panel ``P`` then (LU) pivot rows
            ``R``, each C-ordered, are ``buf[pr_off[i]:pr_off[i + 1]]`` of
            the one factor buffer ``buf`` (see :attr:`Factor.buffer`).
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
        rows: per supernode, its (read-only) front rows, for the stored
            factor.
        task_bounds / task_parent: the scheduler's tasks — task ``t`` is
            supernodes ``task_bounds[t]`` .. ``task_bounds[t + 1] - 1``,
            a maximal subtree of grouped supernodes or one ungrouped
            supernode — and the task forest.
        sn_parent: supernode parent array (``-1`` for roots).
        c: the compiled core's view of these maps
            (:class:`~repro.numeric.compiled.Context`).
        levels: supernode level sets (leaves first): the available
            parallelism reported as ``attribution["level_widths"]`` and
            ``numeric.levels.*``.
    """

    def __init__(self, symbolic: SymbolicFactorization, matrix: CSCMatrix,
                 tree: AssemblyTree | None = None) -> None:
        self.symbolic = symbolic
        self.tree = symbolic.tree if tree is None else tree
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

        sns = self.tree.supernodes
        n_sn = len(sns)
        self.sn_parent = np.array([sn.parent for sn in sns], dtype=np.int64)
        self.levels = etree_level_sets(self.sn_parent)
        lu = symbolic.kind == "lu"
        self._size, self._k, self._first = np.array(
            [(sn.front_size, sn.n_cols, sn.first_col) for sn in sns],
            dtype=np.int64).reshape(-1, 3).T
        k, m = self._k, self._size - self._k
        self._m = m
        self._row_off = np.concatenate(([0], np.cumsum(self._size)))
        self._rows_flat = np.concatenate([sn.rows for sn in sns]).astype(
            np.int64, copy=False)
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
        self.arena_len = np.zeros(n_sn, dtype=np.int64)
        self.ea_maps: list[np.ndarray | None] = [None] * n_sn
        ea = np.zeros(0, dtype=np.int64)
        ea_off = np.zeros(n_sn, dtype=np.int64)
        at = np.full(n_sn, -1, dtype=np.int64)
        if len(in_arena):
            ea = self._extend_add_maps(in_arena)
            # Cut the concatenation where each parent's arena starts; a
            # child's offset is relative to its parent's arena.
            par = self.sn_parent[in_arena]
            first_kid = np.flatnonzero(np.diff(par, prepend=-1))
            starts = c_off[first_kid]
            at[in_arena] = c_off - np.repeat(starts, np.diff(
                np.append(first_kid, len(in_arena))))
            ea_off[par[first_kid]] = starts
            for p, a, b in zip(par[first_kid].tolist(), starts.tolist(),
                               np.append(starts[1:], len(ea)).tolist()):
                self.arena_len[p] = b - a
                self.ea_maps[p] = ea[a:b]

        lo, hi = self.pr_off[:-1], self.pr_off[1:]
        self.layout = np.stack((k, m, lo, lo + self._size * k, hi, at,
                                self.sn_parent), axis=1)
        self._rows_flat.flags.writeable = False
        self.rows = np.split(self._rows_flat, self._row_off[1:-1])
        self.task_bounds, self.task_parent = self._tasks(grouped)
        self.c = self._compiled(grouped, ea, ea_off)

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
        n = len(indptr) - 1
        size, k, first = self._size, self._k, self._first
        start = self._row_off[:-1]
        keys = self._rows_flat + np.repeat(
            np.arange(len(size), dtype=np.int64) * n, size)
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        slot = np.flatnonzero(indices > cols if upper else indices >= cols)
        sn_of = self.tree.col_to_sn[cols[slot]]
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

    def _compiled(self, grouped: np.ndarray, ea: np.ndarray,
                  ea_off: np.ndarray) -> Context:
        """The compiled loop's view of these maps: the children lists as
        offsets into one array, and for the children of parents too
        large to be grouped their rows' positions in the parent's front
        (:attr:`AssemblyTree.child_maps`), concatenated likewise."""
        n_sn = len(self._k)
        counts = np.array([len(kids) for kids in self.kids], dtype=np.int64)
        kids = np.array([c for kids in self.kids for c in kids],
                        dtype=np.int64)
        outer = [c for p in np.flatnonzero(~grouped).tolist()
                 for c in self.kids[p]]
        cm_off = np.full(n_sn, -1, dtype=np.int64)
        cm_off[outer] = np.cumsum(self._m[outer]) - self._m[outer]
        child_maps = self.tree.child_maps
        cm = (np.concatenate([child_maps[c] for c in outer]) if outer
              else np.zeros(0, dtype=np.int64))
        return Context(
            self.layout, first=self._first, row_off=self._row_off,
            rows=self._rows_flat,
            kid_off=np.concatenate(([0], np.cumsum(counts))), kids=kids,
            arena_len=self.arena_len, ea_off=ea_off, ea=ea, cm_off=cm_off,
            cm=cm, task_bounds=self.task_bounds, dst=self.dst, src=self.src)

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
        else to ``C`` at ``(pos[a] - k, pos[b] - k)`` — the offsets the
        compiled core (``extend_add`` in ``_core.c``) computes on the fly
        for parents too large to be grouped.  Since ``pos`` is sorted,
        each row of a child's ``C`` is two runs (``P``, then ``R`` or
        ``C``) whose positions are a per-run base plus ``pos``.
        """
        child_maps = self.tree.child_maps
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


def execution_tree(tree: AssemblyTree) -> AssemblyTree:
    """The tree the numeric engine factors on: ``tree`` with each
    column-contiguous child merged into its parent where the merge rule
    of :func:`repro.symbolic.supernodes.coarsen` accepts it under
    :data:`MERGE_WIDTH` / :data:`MERGE_RATIO` / :data:`MERGE_FRONT`.
    Every execution supernode is a contiguous run of whole supernodes of
    ``tree``; ``tree`` itself comes back when nothing merges."""
    supernodes = coarsen(tree.supernodes, MERGE_WIDTH, MERGE_RATIO,
                         MERGE_FRONT)
    if supernodes is tree.supernodes:
        return tree
    return build_assembly_tree(tree.n, supernodes)


def numeric_context(symbolic: SymbolicFactorization,
                    matrix: CSCMatrix) -> NumericContext:
    """Get (or build and cache) the numeric context for a pattern, on
    the :func:`execution_tree` of the analysis."""
    ctx = getattr(symbolic, "_numeric_ctx", None)
    if ctx is None or not ctx.matches(matrix):
        ctx = NumericContext(symbolic, matrix, execution_tree(symbolic.tree))
        symbolic._numeric_ctx = ctx
    return ctx


# -- the factor -------------------------------------------------------------


def _supernode_triangle(rows: np.ndarray, n_cols: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (row, col) local index pairs of a supernode's stored
    lower-trapezoidal block: all (i, j) with j < n_cols and i >= j."""
    m = len(rows)
    lengths = m - np.arange(n_cols)
    jj = np.repeat(np.arange(n_cols), lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths[:-1])))
    ii = np.arange(int(lengths.sum())) - np.repeat(offsets, lengths) + jj
    return ii, jj


def fronts_to_csc(n: int, fronts, lu: bool
                  ) -> tuple[CSCMatrix, CSCMatrix | None]:
    """Materialize the factor held in per-supernode fronts
    ``(rows, panel, right)`` (see :class:`Factor`) as CSC: ``(L, None)``
    for Cholesky, ``(L, U)`` for LU, of the *permuted* matrix.

    For LU, L has unit diagonal (stored) and U holds the pivots on its
    diagonal.  Whole supernode blocks are assembled at once with
    vectorized ``np.repeat`` / ``np.concatenate`` index arithmetic (no
    per-column Python loop).
    """
    lower, upper = [], []
    for rows, panel, right in fronts:
        k = panel.shape[1]
        ii, jj = _supernode_triangle(rows, k)
        # L: column rows[j] holds rows[i] for i >= j.
        vals = panel[ii, jj]
        if lu:
            # The diagonal (i == j) is stored as the unit 1.0; U: row
            # rows[j] holds columns rows[i] for i >= j, including the
            # pivot diagonal.
            vals[ii == jj] = 1.0
            upper.append((rows[jj], rows[ii],
                          np.hstack((panel[:k], right))[jj, ii]))
        lower.append((rows[ii], rows[jj], vals))

    def csc(entries) -> CSCMatrix:
        return CSCMatrix.from_coo(COOMatrix(
            n, n, *(np.concatenate(part) for part in zip(*entries))))

    return csc(lower), (csc(upper) if lu else None)


@dataclass
class Factor:
    """The numeric output of a multifrontal factorization, Cholesky or LU.

    Attributes:
        symbolic: the analysis this factor was computed under.
        ctx: the numeric context it was computed on (its execution tree,
            :func:`execution_tree`, and where each front sits in
            ``buffer``).
        buffer: every supernode's ``P`` | ``R``, the stored factor, read
            by the supernodal solve (:mod:`repro.numeric.supernodal_solve`)
            and viewed per supernode as :attr:`fronts`.
        perturbed_pivots: number of pivots the static-pivoting
            perturbation replaced during elimination (always 0 for
            Cholesky; 0 for well-conditioned diagonally dominant LU
            inputs).
        attribution: where the factorization's time went — level widths,
            scheduler evidence (``attribution["schedule"]``), worker
            occupancy, wall/busy seconds (see
            :func:`export_factor_metrics`).
    """

    symbolic: SymbolicFactorization
    ctx: NumericContext = field(repr=False, compare=False)
    buffer: np.ndarray = field(repr=False, compare=False)
    perturbed_pivots: int = 0
    attribution: dict | None = field(default=None, repr=False,
                                     compare=False)

    @cached_property
    def fronts(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per execution supernode ``(rows, panel, right)``, views of
        :attr:`buffer`, both C-ordered.  ``panel`` (``len(rows) x
        n_cols``) holds final L values at global row coordinates ``rows``,
        the first ``n_cols`` of which are its columns: for Cholesky on and
        below the diagonal (the strict upper triangle of
        ``panel[:n_cols]`` is unspecified), for LU strictly below it (unit
        diagonal implicit) with U11 on and above it.  ``right`` (``n_cols
        x (len(rows) - n_cols)``) holds U12, the rest of U's rows, for LU
        and is empty for Cholesky."""
        buf = self.buffer
        return [(rows, buf[lo:mid].reshape(-1, k), buf[mid:hi].reshape(k, -1))
                for rows, (k, _, lo, mid, hi, _, _)
                in zip(self.ctx.rows, self.ctx.layout.tolist())]

    @property
    def kind(self) -> str:
        """``"cholesky"`` or ``"lu"``, the analysis's kind."""
        return self.symbolic.kind

    def to_csc(self) -> tuple[CSCMatrix, CSCMatrix | None]:
        """``(L, None)`` for Cholesky, ``(L, U)`` for LU, of the permuted
        matrix as CSC (:func:`fronts_to_csc`)."""
        return fronts_to_csc(self.symbolic.n, self.fronts,
                             self.kind == "lu")

    def nnz(self) -> int:
        """Stored entries of L (plus U for LU) without building CSC:
        every supernode's lower trapezoid (for LU, twice: U mirrors it),
        explicit zeros of merged fronts included — for Cholesky at least
        ``symbolic.factor_nnz``, the structural fill."""
        total = 0
        for rows, panel, _ in self.fronts:
            k = panel.shape[1]
            total += k * len(rows) - k * (k - 1) // 2
        return 2 * total if self.kind == "lu" else total


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
    it describes (:attr:`Factor.attribution`)."""
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
) -> Factor:
    """The numeric driver shared by Cholesky and LU: resolve (and
    range-check) the tuning knobs, build the job's tasks over the
    pattern-cached context (``perturb`` is ``None`` for Cholesky, the
    static-pivoting threshold for LU), run them on ``workers`` threads,
    check every update matrix was consumed, and export the metrics.
    Returns the factor, its attribution view attached."""
    workers = resolve_workers(workers)
    block = resolve_block_size(block_size)
    t_start = time.perf_counter()

    ctx = numeric_context(symbolic, matrix)
    tasks = FactorTasks(ctx, ctx.permuted_data(matrix), block, perturb)
    stats = run_scheduled(tasks, workers)
    tasks.check_consumed()
    attribution = export_factor_metrics(
        symbolic, time.perf_counter() - t_start, block,
        ctx.levels, float(tasks.busy.sum()), stats,
    )
    return Factor(symbolic=symbolic, ctx=ctx, buffer=tasks.buffer,
                  perturbed_pivots=int(tasks.bumped.sum()),
                  attribution=attribution)

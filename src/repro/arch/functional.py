"""Numeric execution of simulator tasks (functional-correctness checking).

The paper validates its simulator by checking functional correctness
against the baselines (Section 6).  This module gives the simulator the
same ability: a :class:`TileExecutor` holds real tile data and applies each
task's kernel when the simulator retires it, so a simulation run *computes
the factorization* — in whatever dynamic order the scheduler chose — and
the result can be compared against the functional multifrontal model.

Kernel semantics per task type (Table 1), including the subtle straddle
case where the last pivot tile-column contains both pivot and Schur
columns (position-based tiling, Figure 10):

* ``dgemm``  — D -= sum_k A_k @ B_k(^T), using only the *pivot* columns of
  each source block;
* ``dchol`` / ``dlu`` — partial factorization of the diagonal tile: factor
  its pivot columns and apply their update to the tile's trailing part;
* ``tsolve`` — solve the tile's pivot columns (rows for U panels) against
  the factored diagonal tile, then apply their rank-p update to the
  tile's trailing columns (rows);
* ``gather_updates`` — coordinate-translated accumulation of child update
  entries into the parent tile (extend-add at tile granularity).

Fronts start from the scatter maps of the solver's pattern-cached
:class:`~repro.numeric.engine.NumericContext` (built on the analysis's
own tree), and :meth:`TileExecutor.factor_csc` reads the factor back
through the solver's :func:`~repro.numeric.engine.fronts_to_csc`, so the
simulated and the functional factor are assembled and compared the same
way.  For Cholesky only the lower triangle of the front is meaningful;
the executor writes/reads exactly the entries the algorithm defines and
the read-back takes only the factored columns.
"""

from __future__ import annotations

import numpy as np

from repro.numeric.dense import partial_cholesky, partial_lu
from repro.numeric.engine import NumericContext, fronts_to_csc
from repro.numeric.lu import static_pivot_threshold
from repro.sparse.csc import CSCMatrix
from repro.tasks.plan import FactorizationPlan
from repro.tasks.task import Task, TaskType, TileRef


class TileExecutor:
    """Executes task kernels on real tile data during simulation.

    Args:
        plan: the tiled execution plan being simulated.
        matrix: the original (unpermuted; for LU, already statically
            row-pivoted) matrix to factor.
    """

    def __init__(self, plan: FactorizationPlan, matrix: CSCMatrix):
        self.plan = plan
        self.symmetric = plan.kind == "cholesky"
        symbolic = plan.symbolic
        # A's values scattered once into every supernode's P | R (see
        # NumericContext); init_front cuts a supernode's slice into tiles.
        ctx = NumericContext(symbolic, matrix)
        data = ctx.permuted_data(matrix)
        self._layout = ctx.layout
        self._initial = np.zeros(int(ctx.pr_off[-1]))
        self._initial[ctx.dst] = data[ctx.src]
        pattern = symbolic.permuted
        self.permuted = CSCMatrix(symbolic.n, symbolic.n, pattern.indptr,
                                  pattern.indices, data)
        self._perturb = (None if self.symmetric
                         else static_pivot_threshold(matrix))
        self.tile = plan.tile
        self._tiles: dict[TileRef, np.ndarray] = {}
        self.tasks_executed = 0

    # -- front lifecycle ------------------------------------------------------

    def init_front(self, sn_index: int) -> None:
        """Materialize a supernode's initial front from A's entries: the
        pivot columns ``P`` and (LU) the pivot rows ``R`` right of them;
        the update block starts at zero."""
        k, m, lo, mid, hi = self._layout[sn_index]
        front = np.zeros((k + m, k + m))
        front[:, :k] = self._initial[lo:mid].reshape(k + m, k)
        if not self.symmetric:
            front[:k, k:] = self._initial[mid:hi].reshape(k, m)
        t = self.tile
        grid = self.plan.supernodes[sn_index].grid
        for bi in range(grid.n_blocks):
            r0, r1 = grid.block_rows(bi)
            for bj in range(grid.n_blocks):
                if self.symmetric and bj > bi:
                    continue
                c0, c1 = grid.block_rows(bj)
                block = np.zeros((t, t))
                block[: r1 - r0, : c1 - c0] = front[r0:r1, c0:c1]
                self._tiles[TileRef(sn_index, bi, bj)] = block

    def _dims(self, ref: TileRef) -> tuple[int, int]:
        grid = self.plan.supernodes[ref.sn].grid
        return grid.block_dim(ref.block_row), grid.block_dim(ref.block_col)

    def _pivots(self, sn: int, block: int) -> int:
        return self.plan.supernodes[sn].grid.pivots_in_block(block)

    # -- kernels ---------------------------------------------------------------

    def execute(self, task: Task) -> None:
        """Apply one task's kernel (call at task retirement)."""
        self.tasks_executed += 1
        if task.ttype is TaskType.DGEMM:
            self._exec_dgemm(task)
        elif task.ttype is TaskType.TSOLVE:
            self._exec_tsolve(task)
        elif task.ttype in (TaskType.DCHOL, TaskType.DLU):
            self._exec_diag(task)
        elif task.ttype is TaskType.GATHER:
            self._exec_gather(task)
        else:
            raise ValueError(f"unknown task type {task.ttype}")

    def _exec_dgemm(self, task: Task) -> None:
        dest = self._tiles[task.dest]
        di, dj = self._dims(task.dest)
        for pair in range(task.n_pairs):
            a_ref = task.inputs[2 * pair]
            b_ref = task.inputs[2 * pair + 1]
            piv = self._pivots(a_ref.sn, a_ref.block_col)
            if piv == 0:
                continue
            a = self._tiles[a_ref][:di, :piv]
            if self.symmetric:
                # B operand is the same block-column's tiles in row j:
                # D -= A @ B^T (outer-product update).
                b = self._tiles[b_ref][:dj, :piv]
                dest[:di, :dj] -= a @ b.T
            else:
                # LU: B is the U tile T[k][j]: D -= L_ik @ U_kj.
                b = self._tiles[b_ref][:piv, :dj]
                dest[:di, :dj] -= a @ b

    def _exec_diag(self, task: Task) -> None:
        dest = self._tiles[task.dest]
        d, _ = self._dims(task.dest)
        piv = self._pivots(task.dest.sn, task.dest.block_col)
        block = dest[:d, :d]
        if task.ttype is TaskType.DCHOL:
            partial_cholesky(block, piv)
        else:
            partial_lu(block, piv, perturb=self._perturb)
        dest[:d, :d] = block

    def _exec_tsolve(self, task: Task) -> None:
        dest_ref = task.dest
        diag_ref = task.inputs[0]
        diag = self._tiles[diag_ref]
        dest = self._tiles[dest_ref]
        dpiv = self._pivots(diag_ref.sn, diag_ref.block_col)
        if self.symmetric or task.tag == "L":
            # Column panel: rows of the destination, solved against the
            # factored diagonal (L11 for Cholesky, U11 for LU — for
            # Cholesky L11 == U11^T so both solve against the lower part).
            di, dj = self._dims(dest_ref)
            if self.symmetric:
                tri = np.tril(diag[:dpiv, :dpiv])
                solved = np.linalg.solve(tri, dest[:di, :dpiv].T).T
            else:
                tri = np.triu(diag[:dpiv, :dpiv])
                solved = np.linalg.solve(tri.T, dest[:di, :dpiv].T).T
            dest[:di, :dpiv] = solved
            if dj > dpiv:
                # Straddle tile: apply the local rank-p update to the
                # tile's own Schur columns.
                if self.symmetric:
                    trailing = diag[dpiv:dj, :dpiv]
                    dest[:di, dpiv:dj] -= solved @ trailing.T
                else:
                    trailing = diag[:dpiv, dpiv:dj]
                    dest[:di, dpiv:dj] -= solved @ trailing
        else:
            # LU U panel: rows of the destination against unit-lower L11.
            di, dj = self._dims(dest_ref)
            lower = np.tril(diag[:dpiv, :dpiv], -1) + np.eye(dpiv)
            solved = np.linalg.solve(lower, dest[:dpiv, :dj])
            dest[:dpiv, :dj] = solved
            if di > dpiv:
                dest[dpiv:di, :dj] -= diag[dpiv:di, :dpiv] @ solved

    def _exec_gather(self, task: Task) -> None:
        parent_ref = task.dest
        parent_sn = self.plan.symbolic.tree.supernodes[parent_ref.sn]
        t = self.tile
        p_r0 = parent_ref.block_row * t
        p_c0 = parent_ref.block_col * t
        p_r1 = min(p_r0 + t, parent_sn.front_size)
        p_c1 = min(p_c0 + t, parent_sn.front_size)
        dest = self._tiles[parent_ref]
        tree = self.plan.symbolic.tree
        for child_ref in task.inputs:
            child_sn = tree.supernodes[child_ref.sn]
            child_map = tree.child_maps[child_ref.sn]
            n_piv = child_sn.n_cols
            front = child_sn.front_size
            # Child tile's update-region row/col position ranges.
            c_r0 = max(child_ref.block_row * t, n_piv)
            c_r1 = min(child_ref.block_row * t + t, front)
            c_c0 = max(child_ref.block_col * t, n_piv)
            c_c1 = min(child_ref.block_col * t + t, front)
            if c_r0 >= c_r1 or c_c0 >= c_c1:
                continue
            rows = np.arange(c_r0, c_r1)
            cols = np.arange(c_c0, c_c1)
            par_rows = child_map[rows - n_piv]
            par_cols = child_map[cols - n_piv]
            rsel = (par_rows >= p_r0) & (par_rows < p_r1)
            csel = (par_cols >= p_c0) & (par_cols < p_c1)
            if not rsel.any() or not csel.any():
                continue
            child_tile = self._tiles[child_ref]
            src = child_tile[
                rows[rsel] - child_ref.block_row * t, :
            ][:, cols[csel] - child_ref.block_col * t]
            if self.symmetric:
                # Only entries at or below the global diagonal are valid.
                gr = par_rows[rsel][:, None]
                gc = par_cols[csel][None, :]
                src = np.where(gr >= gc, src, 0.0)
            dest[np.ix_(par_rows[rsel] - p_r0,
                        par_cols[csel] - p_c0)] += src

    # -- read-back & verification --------------------------------------------

    def factor_csc(self) -> tuple[CSCMatrix, CSCMatrix | None]:
        """The computed factor of the permuted matrix as CSC — ``(L,
        None)`` for Cholesky, ``(L, U)`` for LU: each supernode's tiles
        stitched back into its front, read out by the solver's
        :func:`~repro.numeric.engine.fronts_to_csc`."""
        fronts = []
        for sn in self.plan.symbolic.tree.supernodes:
            k, size = sn.n_cols, sn.front_size
            grid = self.plan.supernodes[sn.index].grid
            front = np.zeros((size, size))
            for bi in range(grid.n_blocks):
                r0, r1 = grid.block_rows(bi)
                for bj in range(grid.n_blocks):
                    tile = self._tiles.get(TileRef(sn.index, bi, bj))
                    if tile is not None:
                        c0, c1 = grid.block_rows(bj)
                        front[r0:r1, c0:c1] = tile[:r1 - r0, :c1 - c0]
            fronts.append((sn.rows, front[:, :k], front[:k, k:]))
        return fronts_to_csc(self.plan.symbolic.n, fronts,
                             not self.symmetric)

    def verify(self, atol: float = 1e-8) -> float:
        """Check the computed factor reconstructs the permuted matrix.

        Returns the max absolute reconstruction error; raises
        AssertionError if it exceeds ``atol``.
        """
        lower, upper = self.factor_csc()
        lower = lower.to_dense()
        upper = lower.T if upper is None else upper.to_dense()
        err = float(np.abs(lower @ upper - self.permuted.to_dense()).max())
        if err > atol:
            raise AssertionError(
                f"simulated factorization is numerically wrong: "
                f"max error {err:.3e} > {atol:.1e}"
            )
        return err

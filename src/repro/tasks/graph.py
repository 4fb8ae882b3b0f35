"""Per-supernode task dependence graphs (Figure 11).

The generator FSMs in hardware (Section 4.4) emit tasks lazily in a fixed
breadth-first order; this module materializes the same task sequence *with*
explicit dependence edges.  The simulator uses the emission order and
readiness conditions; tests use the explicit edges to verify that the
simulator never dispatches a task before its dependences complete and that
alternative emission orders (the Section 5.1 ablation) are semantically
equivalent.

Emission orders supported:

* ``"bf"``       — the paper's breadth-first order: pivot block-columns in
                   sequence, each column's tasks before the next column's
                   (the near-optimal default).
* ``"rowmajor"`` — a "simpler fixed-dimension order" (Section 5.1): all of a
                   tile-row's tasks before the next row.  Semantically
                   equivalent but schedules poorly; used for the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.symbolic.tiling import TileGrid
from repro.tasks import flops as F
from repro.tasks.task import Task, TaskType, TileRef

GatherInputs = dict[tuple[int, int], list[TileRef]]


@dataclass
class SupernodeTaskGraph:
    """All tasks of one supernode, in emission order, with dependences.

    Attributes:
        sn: supernode index.
        grid: the front's tiling.
        tasks: tasks in generator emission order.
        deps: ``deps[t]`` lists indices of *intra-supernode* tasks that must
            complete before task t runs.  Gather tasks additionally depend
            on the child supernodes being fully factored, which is enforced
            at the supernode-scheduling level (Section 5.2), not here.
        final_task_of_tile: index of the task producing each tile's final
            value.
        dependents: the reverse of ``deps``, in ascending task order.
        fetch: per task, the distinct tiles it must fetch (destination
            first), i.e. ``task_input_tiles`` computed once per graph
            instead of once per dispatch.
    """

    sn: int
    grid: TileGrid
    tasks: list[Task] = field(default_factory=list)
    deps: list[list[int]] = field(default_factory=list)
    final_task_of_tile: dict[tuple[int, int], int] = field(
        default_factory=dict
    )
    dependents: list[list[int]] = field(default_factory=list)
    fetch: list[list[TileRef]] = field(default_factory=list)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def total_flops(self) -> int:
        return sum(t.flops for t in self.tasks)

    def validate_topological(self) -> None:
        """Check deps point strictly backwards in emission order.

        This is the property that makes in-order dispatch deadlock-free
        (a generator's head task only waits on already-emitted tasks).
        """
        for t, dlist in enumerate(self.deps):
            for d in dlist:
                if d >= t:
                    raise ValueError(
                        f"task {t} depends on later task {d}; emission order "
                        "is not topological"
                    )


class _Builder:
    """Shared machinery for the Cholesky and LU graph builders."""

    def __init__(self, sn: int, grid: TileGrid,
                 gather_inputs: GatherInputs | None):
        self.sn = sn
        self.grid = grid
        self.graph = SupernodeTaskGraph(sn=sn, grid=grid)
        self.last_writer: dict[tuple[int, int], int] = {}
        self.gather_inputs = gather_inputs or {}
        # What the loop nests re-read for every task, computed once: the
        # tile names, each block's dimension and its pivot-column count.
        blocks = range(grid.n_blocks)
        self.tiles = [[TileRef(sn, i, j) for j in blocks] for i in blocks]
        self.dims = [grid.block_dim(i) for i in blocks]
        self.pivots = [grid.pivots_in_block(k) for k in blocks]

    def tile(self, i: int, j: int) -> TileRef:
        return self.tiles[i][j]

    def emit(self, task: Task, deps: list[int]) -> int:
        graph = self.graph
        index = len(graph.tasks)
        graph.tasks.append(task)
        # Deduplicate while preserving order.
        unique = list(dict.fromkeys(deps))
        graph.deps.append(unique)
        graph.dependents.append([])
        for d in unique:
            graph.dependents[d].append(index)
        dest = task.dest
        graph.fetch.append(list(dict.fromkeys((dest, *task.inputs))))
        self.last_writer[dest.block_row, dest.block_col] = index
        return index

    def dest_dep(self, i: int, j: int) -> list[int]:
        prev = self.last_writer.get((i, j))
        return [prev] if prev is not None else []

    def emit_gathers(self) -> None:
        """One gather task per destination tile receiving child updates.

        Emitted first: Listing 2 gathers before factoring.  Inputs are
        tiles of other supernodes; their readiness is guaranteed by the
        supernode-level dependence (children fully factored first).
        """
        for (i, j) in sorted(self.gather_inputs):
            inputs = self.gather_inputs[(i, j)]
            task = Task(
                ttype=TaskType.GATHER,
                dest=self.tiles[i][j],
                inputs=list(inputs),
                flops=F.task_flops("gather_updates", self.dims[i],
                                   self.dims[j], [1] * len(inputs)),
                sn=self.sn,
            )
            self.emit(task, self.dest_dep(i, j))

    def dgemm_splits(self, i: int, j: int, k_end: int,
                     transpose_b: bool) -> None:
        """Emit the dgemm task(s) updating tile (i, j) from block-columns
        [0, k_end), split per supertile (multi-level tiling, Section 5.1).

        For Cholesky ``transpose_b`` is True: the B operands are the same
        block-column's tiles in row j (B = T[j][k]^T).  For LU it is False:
        B operands are U tiles T[k][j].
        """
        if k_end <= 0:
            return
        s = self.grid.supertile
        tiles = self.tiles
        final_of = self.graph.final_task_of_tile.get
        for k_start in range(0, k_end, s):
            k_stop = min(k_start + s, k_end)
            pairs: list[TileRef] = []
            dep: list[int] = self.dest_dep(i, j)
            for k in range(k_start, k_stop):
                for key in ((i, k), (j, k) if transpose_b else (k, j)):
                    pairs.append(tiles[key[0]][key[1]])
                    final = final_of(key)
                    if final is not None:
                        dep.append(final)
            task = Task(
                ttype=TaskType.DGEMM,
                dest=tiles[i][j],
                inputs=pairs,
                n_pairs=k_stop - k_start,
                flops=F.dgemm_task_flops(
                    self.dims[i], self.dims[j], self.pivots[k_start:k_stop]
                ),
                sn=self.sn,
            )
            self.emit(task, dep)

    def mark_final(self, i: int, j: int) -> None:
        self.graph.final_task_of_tile[(i, j)] = self.last_writer[(i, j)]


def _build_cholesky(builder: _Builder, order: str) -> SupernodeTaskGraph:
    grid = builder.grid
    b, p = grid.n_blocks, grid.n_pivot_blocks
    builder.emit_gathers()

    def factor_column(k: int) -> None:
        # Breadth-first within the column (Figure 11's levels): first every
        # tile's accumulated dgemm — these are mutually independent, so the
        # in-order generator can dispatch the whole wavefront back-to-back —
        # then the dchol, then every tsolve.  Interleaving dgemm/tsolve per
        # tile instead would head-of-line-block the generator on each
        # dgemm's completion and serialize the column.
        piv = builder.pivots[k]
        for i in range(k, b):
            builder.dgemm_splits(i, k, k, transpose_b=True)
        diag = builder.emit(
            Task(
                ttype=TaskType.DCHOL,
                dest=builder.tile(k, k),
                flops=F.dchol_task_flops(piv),
                sn=builder.sn,
            ),
            builder.dest_dep(k, k),
        )
        builder.mark_final(k, k)
        for i in range(k + 1, b):
            builder.emit(
                Task(
                    ttype=TaskType.TSOLVE,
                    dest=builder.tile(i, k),
                    inputs=[builder.tile(k, k)],
                    flops=F.tsolve_task_flops(builder.dims[i], piv),
                    sn=builder.sn,
                ),
                builder.dest_dep(i, k) + [diag],
            )
            builder.mark_final(i, k)

    def schur_tile(i: int, j: int) -> None:
        builder.dgemm_splits(i, j, p, transpose_b=True)
        if (i, j) in builder.last_writer:
            builder.mark_final(i, j)

    if order == "bf":
        for k in range(p):
            factor_column(k)
        for j in range(p, b):
            for i in range(j, b):
                schur_tile(i, j)
    elif order == "rowmajor":
        # Fixed-dimension order: sweep tile rows; within a row, left to
        # right. Same tasks and deps, much worse head-of-line behaviour.
        for i in range(b):
            for j in range(min(i, p - 1) + 1):
                piv = builder.pivots[j]
                builder.dgemm_splits(i, j, j, transpose_b=True)
                if i == j:
                    builder.emit(
                        Task(ttype=TaskType.DCHOL, dest=builder.tile(i, i),
                             flops=F.dchol_task_flops(piv), sn=builder.sn),
                        builder.dest_dep(i, i),
                    )
                else:
                    diag = builder.graph.final_task_of_tile[(j, j)]
                    builder.emit(
                        Task(ttype=TaskType.TSOLVE, dest=builder.tile(i, j),
                             inputs=[builder.tile(j, j)],
                             flops=F.tsolve_task_flops(builder.dims[i],
                                                       piv),
                             sn=builder.sn),
                        builder.dest_dep(i, j) + [diag],
                    )
                builder.mark_final(i, j)
            for j in range(p, i + 1):
                schur_tile(i, j)
    else:
        raise ValueError(f"unknown emission order {order!r}")
    return builder.graph


def _build_lu(builder: _Builder, order: str) -> SupernodeTaskGraph:
    grid = builder.grid
    b, p = grid.n_blocks, grid.n_pivot_blocks
    builder.emit_gathers()

    def factor_step(k: int) -> None:
        # Breadth-first within the step (see the Cholesky builder): all
        # dgemm wavefront tasks first, then the dlu, then every tsolve.
        piv = builder.pivots[k]
        builder.dgemm_splits(k, k, k, transpose_b=False)
        for i in range(k + 1, b):
            builder.dgemm_splits(i, k, k, transpose_b=False)
        for j in range(k + 1, b):
            builder.dgemm_splits(k, j, k, transpose_b=False)
        diag = builder.emit(
            Task(ttype=TaskType.DLU, dest=builder.tile(k, k),
                 flops=F.dlu_task_flops(piv), sn=builder.sn),
            builder.dest_dep(k, k),
        )
        builder.mark_final(k, k)
        for i in range(k + 1, b):
            # L panel tile (i, k): solve against U11 of the pivot tile.
            builder.emit(
                Task(ttype=TaskType.TSOLVE, dest=builder.tile(i, k),
                     inputs=[builder.tile(k, k)],
                     flops=F.tsolve_task_flops(builder.dims[i], piv),
                     sn=builder.sn, tag="L"),
                builder.dest_dep(i, k) + [diag],
            )
            builder.mark_final(i, k)
        for j in range(k + 1, b):
            # U panel tile (k, j): solve against L11 of the pivot tile.
            builder.emit(
                Task(ttype=TaskType.TSOLVE, dest=builder.tile(k, j),
                     inputs=[builder.tile(k, k)],
                     flops=F.tsolve_task_flops(builder.dims[j], piv),
                     sn=builder.sn, tag="U"),
                builder.dest_dep(k, j) + [diag],
            )
            builder.mark_final(k, j)

    def schur_tile(i: int, j: int) -> None:
        builder.dgemm_splits(i, j, p, transpose_b=False)
        if (i, j) in builder.last_writer:
            builder.mark_final(i, j)

    if order == "bf":
        for k in range(p):
            factor_step(k)
        for i in range(p, b):
            for j in range(p, b):
                schur_tile(i, j)
    elif order == "rowmajor":
        # Fixed-dimension order: sweep full-square tiles row by row. Each
        # tile gets its aggregated dgemm then (if in a panel) its solve.
        # Topologically valid but serializes on the diagonal chain.
        for i in range(b):
            for j in range(b):
                s = min(i, j, p)
                builder.dgemm_splits(i, j, s, transpose_b=False)
                if min(i, j) < p:
                    piv = builder.pivots[min(i, j)]
                    if i == j:
                        builder.emit(
                            Task(ttype=TaskType.DLU, dest=builder.tile(i, i),
                                 flops=F.dlu_task_flops(piv), sn=builder.sn),
                            builder.dest_dep(i, i),
                        )
                    else:
                        diag = builder.graph.final_task_of_tile[
                            (min(i, j), min(i, j))
                        ]
                        dim = builder.dims[i if j < i else j]
                        builder.emit(
                            Task(ttype=TaskType.TSOLVE,
                                 dest=builder.tile(i, j),
                                 inputs=[builder.tile(min(i, j), min(i, j))],
                                 flops=F.tsolve_task_flops(dim, piv),
                                 sn=builder.sn,
                                 tag="L" if j < i else "U"),
                            builder.dest_dep(i, j) + [diag],
                        )
                if (i, j) in builder.last_writer:
                    builder.mark_final(i, j)
    else:
        raise ValueError(f"unknown emission order {order!r}")
    return builder.graph


def build_task_graph(
    sn: int,
    grid: TileGrid,
    kind: str,
    gather_inputs: GatherInputs | None = None,
    order: str = "bf",
) -> SupernodeTaskGraph:
    """Build the task graph for one supernode's partial factorization.

    Args:
        sn: supernode index (stamped into tile refs).
        grid: the front's tiling.
        kind: "cholesky" (lower block triangle) or "lu" (full square).
        gather_inputs: per-destination-tile lists of child update tiles.
        order: task emission order, "bf" or "rowmajor" (see module docs).
    """
    builder = _Builder(sn, grid, gather_inputs)
    if kind == "cholesky":
        return _build_cholesky(builder, order)
    if kind == "lu":
        return _build_lu(builder, order)
    raise ValueError("kind must be 'cholesky' or 'lu'")

"""Task and tile descriptors (Table 1 of the paper)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple


class TaskType(enum.Enum):
    """The five Spatula task types."""

    DGEMM = "dgemm"
    TSOLVE = "tsolve"
    DCHOL = "dchol"
    DLU = "dlu"
    GATHER = "gather_updates"


class TileRef(NamedTuple):
    """Globally unique name of one T-by-T tile (a tuple: the simulator
    keys its address map on it once per operand access).

    Attributes:
        sn: owning supernode index.
        block_row / block_col: tile-block coordinates inside that
            supernode's front (position-based tiling, Figure 10).
    """

    sn: int
    block_row: int
    block_col: int

    def __repr__(self) -> str:  # compact: S3[2,1]
        return f"S{self.sn}[{self.block_row},{self.block_col}]"


@dataclass
class Task:
    """One unit of work for a PE.

    Attributes:
        ttype: task type.
        dest: destination tile (also an input: tasks read-modify-write it).
        inputs: input tiles.  For DGEMM these come in (A, B) pairs
            flattened as [a0, b0, a1, b1, ...]; ``n_pairs`` gives the pair
            count.  For TSOLVE it is the factored diagonal tile.  For
            GATHER it is the child update tiles.
        n_pairs: DGEMM pair count (drives systolic latency n * T).
        flops: floating-point operations this task performs (actual tile
            dimensions, not padded).
        sn: owning supernode (dest.sn for compute, the *parent* for GATHER).
        tag: small free-form marker used by tests and traces.
    """

    ttype: TaskType
    dest: TileRef
    inputs: list[TileRef] = field(default_factory=list)
    n_pairs: int = 0
    flops: int = 0
    sn: int = -1
    tag: str = ""

    def __repr__(self) -> str:
        return (
            f"Task({self.ttype.value}, dest={self.dest}, "
            f"inputs={len(self.inputs)}, flops={self.flops})"
        )

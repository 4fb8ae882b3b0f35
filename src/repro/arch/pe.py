"""Processing-element model (Section 4.3, Figure 12).

Each PE owns a double-buffered systolic array, ``task_slots`` task slots
that decouple operand fetch from execution, and one crossbar port.  The
lifecycle of a task on a PE:

1. *dispatch*: the task occupies a slot; operand loads for the destination
   tile and all input tiles are issued immediately (ahead of use);
2. *runnable*: when the leading operands have arrived (destination tile
   plus the first input pair — the rest stream through the input FIFO
   during execution);
3. *execute*: when the array is free, the runnable task with the earliest
   operand-arrival time starts; execution takes the systolic latency, but
   cannot retire before the full input stream has crossed the PE port;
4. *write-back*: the destination tile is written to the cache; the slot
   frees and dependents may be released.

The PE stalls (tracked per Figure 16) whenever its array is idle because
no slot holds a runnable task.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.noc import CrossbarPort
from repro.tasks.task import TaskType


@dataclass(slots=True, eq=False)  # one per task: compared by identity
class PendingTask:
    """A task resident in a PE slot, waiting for operands or the array."""

    gen_sn: int
    task_index: int
    op_ready: int
    stream_done: int
    latency: int
    # Cycle the dispatcher placed the task in this slot.  Cycle accounting
    # (repro.obs.attribution) splits a PE's idle gap at this boundary:
    # idle before dispatch is dependency/scheduler wait, idle between
    # dispatch and op_ready is exposed operand (memory-system) wait.
    dispatched_at: int = 0


@dataclass
class PE:
    """Timing state of one processing element."""

    index: int
    n_slots: int
    array_free: int = 0
    # Crossbar endpoint ports (see repro.arch.noc): read (consume)
    # direction and write-back direction — the ports are full duplex.
    port: CrossbarPort = field(default_factory=lambda: CrossbarPort(0))
    wport: CrossbarPort = field(default_factory=lambda: CrossbarPort(0))
    pending: list[PendingTask] = field(default_factory=list)
    busy_by_type: dict[TaskType, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.busy_by_type = {t: 0 for t in TaskType}

    @property
    def slots_free(self) -> int:
        return self.n_slots - len(self.pending)

    @property
    def port_free(self) -> int:
        return self.port.free_at

    @property
    def wport_free(self) -> int:
        return self.wport.free_at

    def reserve_port(self, cycle: int, transfer_cycles: int) -> int:
        """Occupy the PE's read port for one tile; returns finish."""
        return self.port.reserve_cycles(cycle, transfer_cycles)

    def reserve_write_port(self, cycle: int, transfer_cycles: int) -> int:
        """Occupy the PE's write-back port for one tile; returns finish.

        The crossbar ports are full duplex: the read direction is sized for
        the systolic consume rate (32 doublewords/cycle) and write-backs
        use the opposite direction, so they do not steal load bandwidth."""
        return self.wport.reserve_cycles(cycle, transfer_cycles)

    def add_pending(self, item: PendingTask) -> None:
        if self.slots_free <= 0:
            raise AssertionError(f"PE {self.index} has no free slot")
        self.pending.append(item)

    def pick_runnable(self, now: int) -> PendingTask | None:
        """The runnable pending task with the earliest operand arrival."""
        best: PendingTask | None = None
        for item in self.pending:
            if item.op_ready <= now and (
                best is None or item.op_ready < best.op_ready
            ):
                best = item
        return best

    def next_wakeup(self) -> int | None:
        """Earliest future cycle at which a pending task may become
        runnable (None if no tasks are pending)."""
        if not self.pending:
            return None
        return min([item.op_ready for item in self.pending])

    def start_execution(self, item: PendingTask, now: int,
                        ttype: TaskType) -> int:
        """Begin executing; returns the retire cycle."""
        if now < self.array_free:
            raise AssertionError("array is busy")
        end = max(now + item.latency, item.stream_done)
        self.array_free = end
        self.busy_by_type[ttype] += end - now
        self.pending.remove(item)
        return end

    @property
    def busy_total(self) -> int:
        return sum(self.busy_by_type.values())

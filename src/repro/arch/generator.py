"""Generator units: per-supernode task production (Section 4.4, Figure 15).

A generator is configured with one supernode and emits that supernode's
tasks in a fixed order (the breadth-first loop nest of Section 5.1).  Its
*completion scoreboard* tracks which inputs are available; a task is
released to the dispatcher only when all its inputs have been computed.

The hardware scoreboard encodes "last available column tile per row tile"
in ~500 bits; this model tracks the same information exactly as per-task
indegree counters over the materialized task graph, which is equivalent
because emission order is topological (children of a dependence edge are
always emitted first — validated by
:meth:`repro.tasks.graph.SupernodeTaskGraph.validate_topological`).

Dispatch is in-order (``dataflow_window == 1``): out-of-order *completion*
is allowed, out-of-order *dispatch* is not — except in the Section 5.1
ablation, where a window of up to ``dataflow_window`` pending tasks may
dispatch out of order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tasks.graph import SupernodeTaskGraph


@dataclass
class Generator:
    """One active supernode's task stream."""

    sn: int
    graph: SupernodeTaskGraph
    window: int = 1
    head: int = 0
    n_done: int = 0
    n_dispatched: int = 0
    peak_outstanding: int = 0   # max tasks dispatched but not yet complete
    indegree: list[int] = field(default_factory=list)
    dependents: list[list[int]] = field(default_factory=list)
    dispatched: list[bool] = field(default_factory=list)
    pe_binding: int = -1  # for the "inter" policy: tasks go only here
    n_tasks: int = field(init=False)

    def __post_init__(self) -> None:
        self.n_tasks = self.graph.n_tasks
        self.indegree = [len(d) for d in self.graph.deps]
        self.dependents = self.graph.dependents  # shared, read-only
        self.dispatched = [False] * self.n_tasks

    @property
    def done(self) -> bool:
        return self.n_done == self.n_tasks

    def first_ready(self) -> int:
        """``ready_tasks()[0]`` (or -1) — what the dispatcher takes next;
        O(1) under strict in-order dispatch, where only the head counts."""
        if self.window == 1:
            head = self.head  # mark_dispatched keeps it on an undispatched task
            return head if head < self.n_tasks and not self.indegree[head] \
                else -1
        ready = self.ready_tasks()
        return ready[0] if ready else -1

    def ready_tasks(self) -> list[int]:
        """Dispatchable task indices under the in-order / windowed rule."""
        self._advance_head()
        ready: list[int] = []
        scanned = 0
        t = self.head
        n = self.graph.n_tasks
        while t < n and scanned < self.window:
            if not self.dispatched[t]:
                scanned += 1
                if self.indegree[t] == 0:
                    ready.append(t)
                elif self.window == 1:
                    break  # strict in-order: blocked head blocks the stream
            t += 1
        return ready

    def _advance_head(self) -> None:
        n = self.graph.n_tasks
        while self.head < n and self.dispatched[self.head]:
            self.head += 1

    def mark_dispatched(self, t: int) -> None:
        if self.dispatched[t]:
            raise AssertionError(f"task {t} dispatched twice")
        if self.indegree[t] != 0:
            raise AssertionError(
                f"task {t} dispatched with unresolved dependences"
            )
        self.dispatched[t] = True
        self.n_dispatched += 1
        outstanding = self.n_dispatched - self.n_done
        if outstanding > self.peak_outstanding:
            self.peak_outstanding = outstanding
        self._advance_head()

    def on_complete(self, t: int) -> bool:
        """Retire task t; True if a dependent lost its last dependence."""
        self.n_done += 1
        indegree = self.indegree
        released = False
        for d in self.dependents[t]:
            indegree[d] -= 1
            if indegree[d] < 0:
                raise AssertionError("dependence counter underflow")
            released |= not indegree[d]
        return released

"""Supernode-level scheduling (Sections 4.4 and 5.2).

The supernode scheduler (the RISC-V control core in hardware) maintains a
min-heap of *ready* supernodes keyed by their postorder position.  A
supernode becomes ready when all of its children have been fully factored.
Whenever a generator frees up, the scheduler yields the ready supernode
with the smallest postorder key — the dynamic reordering that unlocks
inter-supernode parallelism while staying close to the footprint-minimal
post-order traversal.

The three policies of Figure 14 differ only in how many supernodes may be
in flight and where their tasks may go:

* ``intra+inter`` (default): up to ``n_generators`` concurrent supernodes,
  tasks go to any PE, dispatcher biased toward older supernodes;
* ``intra``: one supernode at a time across all PEs;
* ``inter``: one supernode *per PE* — each active supernode is bound to a
  single PE (the coarse-grained baseline).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

from repro.arch.config import SpatulaConfig
from repro.symbolic.assembly import AssemblyTree


@dataclass
class SupernodeScheduler:
    """Readiness tracking + min-heap ordering of supernodes."""

    tree: AssemblyTree
    config: SpatulaConfig
    _children_left: list[int] = field(default_factory=list)
    _ready: list[int] = field(default_factory=list)
    _ready_fifo: deque = field(default_factory=deque)
    n_launched: int = 0
    n_completed: int = 0
    # Ready-queue depth observed at each pop (the raw samples behind the
    # scheduler.queue_depth histogram metric).
    queue_depth_samples: list[int] = field(default_factory=list)
    max_queue_depth: int = 0

    def __post_init__(self) -> None:
        self._children_left = [
            len(sn.children) for sn in self.tree.supernodes
        ]
        leaves = [
            sn.index for sn in self.tree.supernodes if not sn.children
        ]
        if self.config.sn_order == "fifo":
            self._ready_fifo = deque(leaves)
        else:
            self._ready = leaves
            heapq.heapify(self._ready)

    @property
    def max_in_flight(self) -> int:
        if self.config.policy == "intra":
            return 1
        if self.config.policy == "inter":
            return self.config.n_pes
        return self.config.n_generators

    @property
    def n_ready(self) -> int:
        """Ready-queue depth (only the configured order's queue is used)."""
        return len(self._ready) + len(self._ready_fifo)

    def has_ready(self) -> bool:
        return bool(self._ready) or bool(self._ready_fifo)

    def pop_ready(self) -> int:
        """Yield the next supernode: smallest postorder key (default), or
        arrival order under the "fifo" ablation."""
        self.n_launched += 1
        depth = self.n_ready
        self.queue_depth_samples.append(depth)
        if depth > self.max_queue_depth:
            self.max_queue_depth = depth
        if self.config.sn_order == "fifo":
            return self._ready_fifo.popleft()
        return heapq.heappop(self._ready)

    def complete(self, sn_index: int) -> int | None:
        """Mark a supernode factored; returns a parent that became ready."""
        self.n_completed += 1
        parent = self.tree.supernodes[sn_index].parent
        if parent < 0:
            return None
        self._children_left[parent] -= 1
        if self._children_left[parent] == 0:
            if self.config.sn_order == "fifo":
                self._ready_fifo.append(parent)
            else:
                heapq.heappush(self._ready, parent)
            return parent
        return None

    @property
    def all_done(self) -> bool:
        return self.n_completed == self.tree.n_supernodes

    def export_metrics(self, registry, prefix: str = "scheduler") -> None:
        """Fold scheduling counters into a metrics registry."""
        registry.counter(f"{prefix}.launched").inc(self.n_launched)
        registry.counter(f"{prefix}.completed").inc(self.n_completed)
        registry.gauge(f"{prefix}.max_queue_depth").set(
            self.max_queue_depth
        )
        hist = registry.histogram(f"{prefix}.queue_depth")
        for depth in self.queue_depth_samples:
            hist.observe(depth)

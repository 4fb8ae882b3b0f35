"""Triangular-solve phase on Spatula (the "fast" box of Figure 2).

The paper evaluates numeric factorization because it dominates end-to-end
time; the solve phase that follows is two supernodal panel sweeps (forward
L y = b in postorder, backward L^T x = y / U x = y in reverse).  This
module models that phase on the same hardware so the library can quantify
the full Figure 2 story — how many solves a factorization amortizes over.

The model reflects what a supernodal solve actually is on this machine:

* each supernode is one *panel task*: stream the supernode's factor tiles
  from cache/HBM through a PE while the systolic array applies one
  triangular solve per diagonal tile and one GEMV per off-diagonal tile
  (arithmetic intensity is O(1) — the sweep is bandwidth-bound, which is
  why the paper calls solves "fast" relative to the O(n^3)-flavored
  factorization);
* tree dependences serialize ancestors: children before parents on the
  forward sweep, parents before children on the backward sweep;
* independent subtrees run on different PEs.

Factor tiles are assumed cold in DRAM at the start of each sweep (the
factorization wrote them back; a solve typically happens much later in
the application loop), so each sweep reads nnz(L)-proportional bytes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.arch.cache import BankedCache
from repro.arch.config import SpatulaConfig
from repro.arch.memory import HBMModel
from repro.arch.sim import SimulationStuck
from repro.obs import span
from repro.tasks.plan import FactorizationPlan


@dataclass
class SolveReport:
    """Modeled timing of one triangular-solve pass (both sweeps)."""

    config: SpatulaConfig
    forward_cycles: int
    backward_cycles: int
    dram_bytes: int
    n_supernodes: int

    @property
    def cycles(self) -> int:
        return self.forward_cycles + self.backward_cycles

    @property
    def seconds(self) -> float:
        return self.cycles / (self.config.freq_ghz * 1e9)

    @property
    def avg_bandwidth_gbs(self) -> float:
        return self.dram_bytes / self.seconds / 1e9 if self.seconds else 0.0


class SolveSim:
    """Discrete-event model of the supernodal triangular solve."""

    def __init__(self, plan: FactorizationPlan,
                 config: SpatulaConfig | None = None):
        self.plan = plan
        self.config = config or SpatulaConfig.paper()
        if self.config.tile != plan.tile:
            raise ValueError("plan tile size does not match config")

    # -- per-supernode panel cost ------------------------------------------------

    def _panel_tiles(self, sn_index: int) -> int:
        grid = self.plan.supernodes[sn_index].grid
        # The solve touches the pivot panel: diagonal blocks plus the
        # sub-diagonal blocks of the first P tile-columns.
        p = grid.n_pivot_blocks
        return p * grid.n_blocks - p * (p - 1) // 2

    def _panel_exec_cycles(self, sn_index: int) -> int:
        """Array cycles: one tsolve per diagonal tile (2T), one GEMV per
        off-diagonal panel tile (T)."""
        p = self.plan.supernodes[sn_index].grid.n_pivot_blocks
        offdiag = self._panel_tiles(sn_index) - p
        return (2 * p + offdiag) * self.config.tile

    # -- the sweep ---------------------------------------------------------------

    def _sweep(self, topdown: bool) -> tuple[int, int]:
        """Run one sweep; returns (makespan cycles, DRAM bytes)."""
        cfg = self.config
        tree = self.plan.symbolic.tree
        hbm = HBMModel(cfg)
        cache = BankedCache(cfg, hbm)
        n_sn = tree.n_supernodes

        if topdown:
            deps_left = [0 if tree.supernodes[k].parent < 0 else 1
                         for k in range(n_sn)]
        else:
            deps_left = [len(tree.supernodes[k].children)
                         for k in range(n_sn)]
        ready = [k for k in range(n_sn) if deps_left[k] == 0]
        heapq.heapify(ready)

        pe_free = [(0, pe) for pe in range(cfg.n_pes)]  # heap: (free_at, pe)
        running: list[tuple[int, int, int]] = []  # (finish, sn, pe)
        now = 0
        makespan = 0
        next_addr = 0
        done = 0
        while done < n_sn:
            while ready:
                # Earliest-free (then lowest-index) PE executes the next
                # ready supernode.
                free_at, pe = pe_free[0]
                sn = heapq.heappop(ready)
                start = max(now, free_at)
                # Stream the panel: cold reads issued back-to-back (the
                # decoupled prefetcher pipelines them; DRAM latency
                # overlaps, channel occupancy is the real cost).
                tiles = self._panel_tiles(sn)
                data_ready = start
                for _ in range(tiles):
                    fill = hbm.read_line(
                        cache.channel_of(next_addr), start, "factor_load"
                    )
                    data_ready = max(data_ready, fill)
                    next_addr += 1
                exec_end = max(start + self._panel_exec_cycles(sn),
                               data_ready)
                heapq.heapreplace(pe_free, (exec_end, pe))
                heapq.heappush(running, (exec_end, sn, pe))
            if not running:
                raise SimulationStuck("solve sweep deadlocked", {
                    "topdown": topdown, "done": f"{done}/{n_sn}",
                    "ready": list(ready),
                    "deps_left": {k: d for k, d in enumerate(deps_left)
                                  if d > 0},
                })
            finish, sn, _pe = heapq.heappop(running)
            now = max(now, finish)
            makespan = max(makespan, now)
            done += 1
            if topdown:
                for child in tree.supernodes[sn].children:
                    deps_left[child] -= 1
                    if deps_left[child] == 0:
                        heapq.heappush(ready, child)
            else:
                parent = tree.supernodes[sn].parent
                if parent >= 0:
                    deps_left[parent] -= 1
                    if deps_left[parent] == 0:
                        heapq.heappush(ready, parent)
        return makespan, hbm.total_bytes

    def run(self) -> SolveReport:
        with span("sim.solve"):
            forward, bytes_fwd = self._sweep(topdown=False)
            backward, bytes_bwd = self._sweep(topdown=True)
        return SolveReport(
            config=self.config,
            forward_cycles=forward,
            backward_cycles=backward,
            dram_bytes=bytes_fwd + bytes_bwd,
            n_supernodes=self.plan.n_supernodes,
        )


def simulate_solve(plan: FactorizationPlan,
                   config: SpatulaConfig | None = None) -> SolveReport:
    """Model one triangular-solve pass (forward + backward sweeps)."""
    return SolveSim(plan, config).run()

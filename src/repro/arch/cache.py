"""Banked LRU tile cache (Section 4.5).

Lines are tile-sized (2 KB), so one cache line holds exactly one T-by-T
tile.  Banks are interleaved by tile address; each bank is set-associative
with true LRU, write-allocate, write-back.  Lookups model the serial
tag-then-data access (a fixed hit latency) plus bank-port occupancy, and
misses go to the bank's HBM channel.

The cache understands three access flavours:

* ``load``     — read a tile that has been written before (may miss to DRAM);
* ``allocate`` — first-ever touch of a tile: the line is installed
  zero-filled with no DRAM read (fronts are created on-chip; their initial
  A-values are accounted separately as bulk compulsory traffic);
* ``store``    — a PE write-back of a destination tile (write-allocate).

Evictions of dirty lines generate DRAM write traffic classified as spill or
result depending on whether the tile holds final factor output.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass

from repro.arch.config import SpatulaConfig
from repro.arch.memory import HBMModel


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    allocations: int = 0
    stores: int = 0
    dirty_evictions: int = 0
    bytes_accessed: int = 0
    mshr_stall_cycles: int = 0
    bank_wait_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.allocations + self.stores

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 1.0

    def export_metrics(self, registry, prefix: str = "cache") -> None:
        """Fold the counters into a metrics registry (``cache.hits``,
        ``cache.misses``, ...)."""
        for name in ("hits", "misses", "allocations", "stores",
                     "dirty_evictions", "bytes_accessed",
                     "mshr_stall_cycles", "bank_wait_cycles"):
            registry.counter(f"{prefix}.{name}").inc(getattr(self, name))
        registry.gauge(f"{prefix}.hit_rate").set(self.hit_rate)


class BankedCache:
    """The banked LRU cache plus its DRAM backside."""

    def __init__(self, config: SpatulaConfig, hbm: HBMModel):
        self.config = config
        self.hbm = hbm
        self.n_banks = config.cache_banks
        self.n_sets = config.cache_sets_per_bank
        self.ways = config.cache_ways
        # Derived config properties, read once (they are per-access costs).
        self._n_channels = config.hbm_channels
        self._tile_bytes = config.tile_bytes
        self._bank_cycles = config.bank_transfer_cycles
        self._hit_latency = config.cache_hit_latency
        self._max_misses = config.max_outstanding_misses
        # One LRU-ordered (oldest first) address -> dirty map per (set,
        # bank); banks interleave by address, so the line set of ``addr``
        # is ``_lines[addr % (n_banks * n_sets)]``.
        self._lines: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.n_banks * self.n_sets)
        ]
        self._bank_free = [0] * self.n_banks      # read port per bank
        self._bank_wfree = [0] * self.n_banks     # write port per bank
        self._seen: set[int] = set()
        # Outstanding-miss (MSHR) tracking: fill-completion times of
        # in-flight misses, capped at config.max_outstanding_misses.
        self._inflight: list[int] = []
        self.stats = CacheStats()
        # Callback deciding traffic class of an evicted dirty tile:
        # address -> "store_spill" | "store_result".  Installed by the sim.
        self.classify_store = lambda addr: "store_spill"

    def channel_of(self, addr: int) -> int:
        """HBM channel behind the bank (``addr % n_banks``) of ``addr``."""
        return addr % self.n_banks % self._n_channels

    # -- internals ------------------------------------------------------------

    def _reserve(self, ports: list[int], addr: int, cycle: int) -> int:
        """Occupy the bank port of ``addr`` for one line; returns the start."""
        bank = addr % self.n_banks
        free_at = ports[bank]
        if cycle < free_at:
            self.stats.bank_wait_cycles += free_at - cycle
            cycle = free_at
        self.stats.bytes_accessed += self._tile_bytes
        ports[bank] = cycle + self._bank_cycles
        return cycle

    def _install(self, lines: OrderedDict[int, bool], addr: int,
                 dirty: bool, cycle: int) -> None:
        if len(lines) >= self.ways:
            victim, victim_dirty = lines.popitem(last=False)
            if victim_dirty:
                kind = self.classify_store(victim)
                self.hbm.write_line(self.channel_of(victim), cycle, kind)
                self.stats.dirty_evictions += 1
        lines[addr] = dirty

    # -- public accesses -------------------------------------------------------

    def load(self, addr: int, cycle: int, miss_kind: str) -> int:
        """Read a tile; returns the cycle its data leaves the bank."""
        start = self._reserve(self._bank_free, addr, cycle)
        lines = self._lines[addr % len(self._lines)]
        if addr in lines:
            self.stats.hits += 1
            lines.move_to_end(addr)
            return start + self._hit_latency + self._bank_cycles
        if addr not in self._seen:
            # First touch: allocate zero-filled, no DRAM read.
            self._seen.add(addr)
            self.stats.allocations += 1
            self._install(lines, addr, dirty=False, cycle=start)
            return start + self._hit_latency + self._bank_cycles
        # Genuine miss: fetch from the bank's HBM channel, subject to
        # MSHR availability (up to 256 concurrent misses, Table 2).
        self.stats.misses += 1
        tag_done = start + self._hit_latency
        while self._inflight and self._inflight[0] <= tag_done:
            heapq.heappop(self._inflight)
        if len(self._inflight) >= self._max_misses:
            wait_until = heapq.heappop(self._inflight)
            self.stats.mshr_stall_cycles += max(0, wait_until - tag_done)
            tag_done = max(tag_done, wait_until)
        fill = self.hbm.read_line(self.channel_of(addr), tag_done, miss_kind)
        heapq.heappush(self._inflight, fill)
        self._install(lines, addr, dirty=False, cycle=fill)
        return fill + self._bank_cycles

    def store(self, addr: int, cycle: int) -> int:
        """Write a tile back from a PE (write-allocate, write-back)."""
        start = self._reserve(self._bank_wfree, addr, cycle)
        lines = self._lines[addr % len(self._lines)]
        self.stats.stores += 1
        self._seen.add(addr)
        if addr in lines:
            lines[addr] = True
            lines.move_to_end(addr)
        else:
            self._install(lines, addr, dirty=True, cycle=start)
        return start + self._bank_cycles

    # -- end-of-run flush ------------------------------------------------------

    def flush_results(self, cycle: int, is_result) -> int:
        """Write back dirty *result* tiles at the end of the run.

        Dead intermediates (consumed update tiles) are dropped without
        traffic — the scheduler knows they will never be read again.
        Returns the drain-completion cycle.
        """
        done = cycle
        for lines in self._lines:
            for addr, dirty in lines.items():
                if dirty and is_result(addr):
                    done = max(
                        done,
                        self.hbm.write_line(
                            self.channel_of(addr), cycle, "store_result"
                        ),
                    )
        return done

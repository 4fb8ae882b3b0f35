"""Crossbar NoC model (Section 4.5).

Spatula connects 32 PEs to 32 cache banks with full (bit-sliced) crossbars
— practical at this scale per Passas et al., the model the paper uses.  A
full crossbar is non-blocking: any PE-to-bank pair can communicate as long
as neither endpoint's port is busy.  Contention therefore lives entirely at
the endpoints, which we model as busy-until reservations:

* each PE has one :class:`CrossbarPort` (32 doublewords/cycle = 256 B/cycle
  in the paper config) — owned by :class:`repro.arch.pe.PE`;
* each cache bank has a port of the same width — owned by
  :class:`repro.arch.cache.BankedCache` as the bank reservation.

Aggregate bandwidth at full activity is n_pes x 256 B/cycle = 8 TB/s,
matching the paper's sizing argument.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CrossbarPort:
    """One endpoint port of the crossbar (busy-until reservation).

    Tracks its own occupancy (``busy_cycles``) and head-of-line waiting
    (``stall_cycles`` — cycles a transfer sat behind an earlier one), the
    raw counters behind the ``noc.port.*`` metrics.
    """

    bytes_per_cycle: int
    free_at: int = 0
    busy_cycles: int = 0
    stall_cycles: int = 0

    def reserve(self, cycle: int, n_bytes: int) -> int:
        """Occupy the port for a transfer; returns the completion cycle."""
        cycles = max(1, -(-n_bytes // self.bytes_per_cycle))
        return self.reserve_cycles(cycle, cycles)

    def reserve_cycles(self, cycle: int, cycles: int) -> int:
        """Occupy the port for a known number of cycles."""
        free_at = self.free_at
        if cycle < free_at:
            self.stall_cycles += free_at - cycle
            cycle = free_at
        self.busy_cycles += cycles
        self.free_at = done = cycle + cycles
        return done


def aggregate_bandwidth_tbs(n_ports: int, bytes_per_cycle: int,
                            freq_ghz: float) -> float:
    """Peak NoC bandwidth in TB/s when every port is active."""
    return n_ports * bytes_per_cycle * freq_ghz / 1e3

"""HBM2E main-memory channel model (Sections 4.5 and 6).

Each cache bank issues accesses to a single HBM channel; because a cache
line is 2 KB (the DRAM row-buffer size), transfers achieve high utilization
and are modeled as fixed-occupancy channel reservations plus access latency.

Traffic is tracked per Figure 17 category:

* ``comp_load``       — compulsory loads of the input matrix A;
* ``gather_load``     — non-compulsory re-loads issued by gather tasks;
* ``factor_load``     — non-compulsory re-loads by other task types;
* ``store_spill``     — write-backs of evicted intermediate tiles;
* ``store_result``    — write-backs of final factor tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config import SpatulaConfig

TRAFFIC_KINDS = (
    "comp_load", "gather_load", "factor_load", "store_spill", "store_result",
)


@dataclass
class HBMModel:
    """Busy-until reservation model of the HBM channels."""

    config: SpatulaConfig
    channel_free: list[int] = field(default_factory=list)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_channel: list[int] = field(default_factory=list)
    channel_wait_cycles: int = 0

    def __post_init__(self) -> None:
        self.channel_free = [0] * self.config.hbm_channels
        self.bytes_by_kind = {k: 0 for k in TRAFFIC_KINDS}
        self.bytes_by_channel = [0] * self.config.hbm_channels
        # Derived config properties, read once (they are per-access costs).
        self._line_cycles = self.config.hbm_line_cycles
        self._latency = self.config.hbm_latency
        self._line_bytes = self.config.tile_bytes

    def read_line(self, channel: int, cycle: int, kind: str) -> int:
        """Issue a line read; returns the cycle data is available."""
        return self._transfer(channel, cycle, kind) + self._latency

    def write_line(self, channel: int, cycle: int, kind: str) -> int:
        """Issue a line write-back; returns when the channel accepts it."""
        return self._transfer(channel, cycle, kind)

    def _transfer(self, channel: int, cycle: int, kind: str) -> int:
        """Occupy a channel for one line; returns the end of the transfer."""
        start = max(cycle, self.channel_free[channel])
        self.channel_free[channel] = done = start + self._line_cycles
        self.channel_wait_cycles += start - cycle
        self.bytes_by_kind[kind] += self._line_bytes
        self.bytes_by_channel[channel] += self._line_bytes
        return done

    def read_bulk(self, n_bytes: int, cycle: int, kind: str) -> int:
        """Stream a bulk read (the compulsory A-matrix input) across all
        channels; returns the completion cycle."""
        if n_bytes <= 0:
            return cycle
        n_channels = self.config.hbm_channels
        per_chan = n_bytes / n_channels
        cycles = per_chan / self.config.hbm_bytes_per_cycle_per_channel
        done = cycle
        for c in range(n_channels):
            start = max(cycle, self.channel_free[c])
            self.channel_free[c] = start + int(cycles) + 1
            done = max(done, self.channel_free[c])
            self.bytes_by_channel[c] += n_bytes // n_channels
        self.bytes_by_kind[kind] += n_bytes
        return done

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())

    def export_metrics(self, registry, prefix: str = "hbm") -> None:
        """Fold the traffic counters into a metrics registry
        (``hbm.bytes.<kind>``, ``hbm.chan<i>.bytes``)."""
        for kind, n in self.bytes_by_kind.items():
            registry.counter(f"{prefix}.bytes.{kind}").inc(n)
        registry.counter(f"{prefix}.bytes.total").inc(self.total_bytes)
        registry.counter(f"{prefix}.channel_wait_cycles").inc(
            self.channel_wait_cycles
        )
        for c, n in enumerate(self.bytes_by_channel):
            registry.counter(f"{prefix}.chan{c}.bytes").inc(n)

    def drain_cycle(self) -> int:
        """Cycle by which all outstanding channel work completes."""
        return max(self.channel_free) if self.channel_free else 0

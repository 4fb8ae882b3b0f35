"""The Spatula architecture simulator (Sections 4-6 of the paper).

A cycle-accurate discrete-event model of the accelerator:

* 32 processing elements, each a 16x16 double-buffered systolic array with
  four task slots and decoupled operand fetch (:mod:`repro.arch.pe`);
* a two-level scheduler — a supernode scheduler (min-heap over postorder,
  Section 5.2) feeding generator FSMs whose scoreboards release tasks
  in-order to a biased task dispatcher (:mod:`repro.arch.scheduler`);
* a banked, 16-way LRU, 2 KB-line cache with write-back semantics
  (:mod:`repro.arch.cache`) in front of an HBM2E channel model
  (:mod:`repro.arch.memory`), connected by crossbar ports
  (:mod:`repro.arch.noc`);
* area and power models calibrated to Table 2 (:mod:`repro.arch.energy`).

Entry point: :class:`repro.arch.sim.SpatulaSim` /
:func:`repro.arch.sim.simulate`.
"""

from repro.arch.config import SpatulaConfig
from repro.arch.stats import SimReport
from repro.arch.sim import SimulationStuck, SpatulaSim, simulate
from repro.arch.solve import SolveReport, SolveSim, simulate_solve
from repro.arch.energy import area_breakdown, power_breakdown

__all__ = [
    "SpatulaConfig",
    "SimReport",
    "SimulationStuck",
    "SpatulaSim",
    "simulate",
    "SolveReport",
    "SolveSim",
    "simulate_solve",
    "area_breakdown",
    "power_breakdown",
]

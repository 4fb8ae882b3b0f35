"""Bit-identity of the simulator against ``tests/data/sim_golden.json``.

The golden file was generated from the tree *before* the host-speed
rewrite of ``repro.arch.sim`` (commit 00c32dd).  A host-speed change
must leave every simulated quantity alone: the full metrics registry,
``SimReport.cycles``, the per-task execution trace and the cycle
attribution — not only the cycle total.

Regenerating is a declared model change, never part of a host-speed PR:

    PYTHONPATH=src python -m tests.test_sim_golden
"""

import functools
import json
from pathlib import Path

import pytest

from repro.arch.config import SpatulaConfig
from repro.arch.sim import SpatulaSim, simulate
from repro.obs import MetricsRegistry
from repro.sparse import (
    circuit_like,
    grid_laplacian_2d,
    grid_laplacian_3d,
    power_law_spd,
)
from repro.symbolic.analyze import symbolic_factorize
from repro.tasks.plan import build_plan
from repro.verify.generators import build_case

GOLDEN = Path(__file__).parent / "data" / "sim_golden.json"

TRACE_FIELDS = ("pe", "start", "end", "ttype", "sn", "task_index",
                "dispatch", "op_ready")


def _fuzz(family, seed):
    case = build_case(family, seed)
    return case.kind, case.matrix, {}


#: Fundamental supernodes (no amalgamation): many small fronts, so several
#: generators are live at once and ``sn_order`` / dispatch bias matter.
_FUNDAMENTAL = dict(relax_small=0, relax_ratio=0.0)

#: name -> () -> (kind, matrix, symbolic_factorize kwargs): grid,
#: circuit/hub and fuzz families, both factorization kinds.
MATRICES = {
    "grid2d": lambda: ("cholesky", grid_laplacian_2d(9, seed=3), {}),
    "grid3d": lambda: ("cholesky", grid_laplacian_3d(5, seed=4), {}),
    "grid2d_fundamental": lambda: (
        "cholesky", grid_laplacian_2d(10, seed=8), _FUNDAMENTAL),
    "hub_spd": lambda: ("cholesky", power_law_spd(120, seed=5), {}),
    "circuit_lu": lambda: ("lu", circuit_like(
        150, hub_fraction=0.05, aspect=12, seed=7), {}),
    "circuit_lu_fundamental": lambda: ("lu", circuit_like(
        80, hub_fraction=0.05, aspect=12, seed=11), _FUNDAMENTAL),
    "fuzz_dense_blocks": lambda: _fuzz("spd_dense_blocks", 3),
    "fuzz_mesh": lambda: _fuzz("spd_mesh", 2),
    "fuzz_unsym_dd": lambda: _fuzz("lu_unsym_dd", 5),
}

_BASE = dict(n_pes=4, n_generators=4, task_slots=4)
#: A cache of 8 lines behind 2 MSHRs: misses, dirty evictions, MSHR stalls.
_THRASH = dict(cache_mb=0.001, max_outstanding_misses=2)

#: One entry per axis the event loop branches on, then combinations.
CONFIGS = {
    "base": _BASE,
    "intra": dict(_BASE, policy="intra"),
    "inter": dict(_BASE, policy="inter"),
    "rowmajor": dict(_BASE, order="rowmajor"),
    "window4": dict(_BASE, dataflow_window=4),
    "slots1": dict(_BASE, task_slots=1),
    "fifo": dict(_BASE, sn_order="fifo"),
    "thrash": dict(_BASE, **_THRASH),
    "inter_all": dict(_BASE, policy="inter", order="rowmajor",
                      dataflow_window=4, task_slots=1, sn_order="fifo",
                      **_THRASH),
    "intra_window_thrash": dict(_BASE, policy="intra", dataflow_window=4,
                                **_THRASH),
    "window_fifo_thrash": dict(_BASE, dataflow_window=4, sn_order="fifo",
                               **_THRASH),
}

#: (matrix name, kind, ordering, builder, arch.cycles, tasks.n_tasks) of
#: the two ladder sim workloads at seed 2023 on the paper machine.
LADDER = (
    ("sim_spd3d", "cholesky", "nd",
     lambda: grid_laplacian_3d(16, 16, 16, seed=2023), 42_287, 11_534),
    ("sim_circuit_lu", "lu", "amd",
     lambda: circuit_like(6000, hub_fraction=0.02, aspect=12, seed=2023),
     29_402, 5_689),
)


def capture(matrix_name: str, config_name: str) -> dict:
    """Everything one simulated run produced, JSON-shaped."""
    kind, matrix, relax = MATRICES[matrix_name]()
    cfg = SpatulaConfig.tiny(**CONFIGS[config_name])
    plan = build_plan(symbolic_factorize(matrix, kind=kind, **relax),
                      tile=cfg.tile, supertile=cfg.supertile)
    registry = MetricsRegistry()
    sim = SpatulaSim(plan, cfg, trace=True, metrics=registry)
    report = sim.run()
    return {
        "cycles": report.cycles,
        "metrics": registry.snapshot(),
        "trace": {f: [getattr(e, f) for e in sim.trace]
                  for f in TRACE_FIELDS},
        "attribution": sim.attribution()["cycles"],
    }


@functools.lru_cache(maxsize=None)
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("matrix_name", MATRICES)
@pytest.mark.parametrize("config_name", CONFIGS)
def test_run_is_bit_identical(matrix_name, config_name):
    want = _golden()[f"{matrix_name}/{config_name}"]
    # Through JSON, as the golden went: dict keys become strings.
    got = json.loads(json.dumps(capture(matrix_name, config_name)))
    assert got["cycles"] == want["cycles"]
    assert got["metrics"].keys() == want["metrics"].keys()
    for name, value in want["metrics"].items():
        assert got["metrics"][name] == value, name
    for f in TRACE_FIELDS:
        assert got["trace"][f] == want["trace"][f], f"trace.{f}"
    assert got["attribution"] == want["attribution"]


def test_golden_covers_the_memory_system_branches():
    """The thrash configs exist to reach misses, dirty evictions and MSHR
    stalls; a golden that never does would prove nothing about them."""
    golden = _golden()
    for counter in ("cache.misses", "cache.dirty_evictions",
                    "cache.mshr_stall_cycles", "cache.bank_wait_cycles",
                    "hbm.channel_wait_cycles", "noc.port.stall_cycles"):
        assert any(run["metrics"][counter] > 0 for run in golden.values()), \
            counter
    assert len(golden) == len(MATRICES) * len(CONFIGS)


@pytest.mark.parametrize("name,kind,ordering,build,cycles,n_tasks", LADDER,
                         ids=[row[0] for row in LADDER])
def test_ladder_sim_counts(name, kind, ordering, build, cycles, n_tasks):
    report = simulate(build(), kind, config=SpatulaConfig.paper(),
                      ordering=ordering)
    assert (report.cycles, report.n_tasks) == (cycles, n_tasks)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {f"{m}/{c}": capture(m, c) for m in MATRICES for c in CONFIGS},
        separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")

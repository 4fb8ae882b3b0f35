"""The simulator rung: host cost of one ``simulate()``.

Simulated statistics (cycles, utilization, TFLOP/s) repeat exactly and
are gated on that; host seconds are what this rung times.  Traced, the
call is replayed as order -> symbolic -> plan -> run.
"""

from __future__ import annotations

import time

import inputs
from spans import Tracer, unaccounted_frac
from timing import measure, median, summarize

from repro.arch.config import SpatulaConfig
from repro.arch.sim import SpatulaSim, simulate
from repro.ordering import fill_reducing_ordering
from repro.symbolic.analyze import symbolic_factorize
from repro.tasks.plan import build_plan

SIM_WARMUP, SIM_REPEAT = 1, 5
TRACED_REPEAT = 5
TRACED_OPAQUE_REPEAT = 3


def sim(name: str, seed: int, reps, traced: bool) -> dict:
    gate = inputs.Gate()
    config = SpatulaConfig.paper()
    t_setup = time.perf_counter()
    a, kind, ordering = inputs.matrix("sim_" + name, seed)
    # The schedule must compute the real factor; checked on a reduced
    # instance of the same family (see inputs.MATRICES).
    small, _, _ = inputs.matrix("check_" + name, seed)
    try:
        simulate(small, kind, config=config, ordering=ordering,
                 check_numerics=True)
        gate.check(True, "")
    except AssertionError as exc:
        gate.check(False, f"check_numerics run failed: {exc}")
    setup_s = time.perf_counter() - t_setup

    cycles: list[int] = []

    def opaque(i, lap):
        with lap("sim_host_s"):
            report = simulate(a, kind, config=config, ordering=ordering)
        cycles.append(report.cycles)
        gate.check(report.cycles == cycles[0],
                   f"sim {i}: {report.cycles} cycles, first run "
                   f"{cycles[0]}")

    out = {"setup_s": setup_s, "e2e": {}, "layers": {}, "spans": []}
    warmup = SIM_WARMUP if reps(SIM_REPEAT) > 1 else 0
    untraced = measure(
        opaque, warmup=warmup,
        repeat=reps(TRACED_OPAQUE_REPEAT if traced else SIM_REPEAT))
    if not traced:
        out["e2e"]["sim_host_s"] = summarize(untraced["sim_host_s"])
    else:
        layers, spans = _traced(a, kind, ordering, config,
                                reps(TRACED_REPEAT), cycles[0], gate)
        layers["trace.overhead_frac.sim"] = (
            layers.pop("_op_median") / median(untraced["sim_host_s"])
            - 1.0)
        out["layers"], out["spans"] = layers, spans
    out.update(attempted=gate.attempted, failed=gate.failed,
               reasons=gate.reasons)
    return out


def _traced(a, kind, ordering, config, repeat: int, cycles: int,
            gate: inputs.Gate) -> tuple[dict, list[dict]]:
    tr = Tracer()
    roots: list[int] = []
    for i in range(repeat):
        with tr.span("simulate", op=f"sim{i}") as root:
            with tr.span("ordering." + ordering):
                perm = fill_reducing_ordering(a, ordering)
            with tr.span("symbolic.analyze"):
                sym = symbolic_factorize(a, kind=kind, perm=perm)
            with tr.span("tasks.plan"):
                plan = build_plan(sym, tile=config.tile,
                                  supertile=config.supertile)
            with tr.span("arch.run"):
                report = SpatulaSim(plan, config).run()
        roots.append(root)
        gate.check(report.cycles == cycles,
                   f"traced sim {i}: {report.cycles} cycles, opaque "
                   f"simulate() gave {cycles}")

    def stage(prefix: str) -> float:
        return median([tr.duration(c) for r in roots
                       for c in tr.children(r)
                       if tr.spans[c]["name"].startswith(prefix)])

    order_s, run_s = stage("ordering."), stage("arch.run")
    layers = {
        "_op_median": median([tr.duration(r) for r in roots]),
        "ordering.nd_s": order_s if ordering == "nd" else 0.0,
        "sim.analysis_s": order_s + stage("symbolic.analyze"),
        "tasks.plan_s": stage("tasks.plan"),
        "tasks.n_tasks": report.n_tasks,
        "arch.run_s": run_s,
        "arch.host_us_per_task": run_s / report.n_tasks * 1e6,
        "arch.cycles": report.cycles,
        "arch.utilization": report.utilization,
        "arch.achieved_tflops": report.achieved_tflops,
        "closure.unaccounted_frac.sim": unaccounted_frac(tr, roots),
    }
    return layers, tr.spans

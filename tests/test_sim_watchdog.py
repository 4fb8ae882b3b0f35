"""The simulators' watchdog: a run that cannot finish, or passes a limit,
raises :class:`SimulationStuck` carrying the stuck scoreboard."""

import pytest

from repro.arch import SimulationStuck, SolveSim, SpatulaConfig, SpatulaSim
from repro.symbolic.analyze import symbolic_factorize
from repro.tasks.plan import FactorizationPlan, build_plan


@pytest.fixture
def plan(spd_medium):
    cfg = SpatulaConfig.tiny()
    return build_plan(symbolic_factorize(spd_medium), tile=cfg.tile,
                      supertile=cfg.supertile)


def test_dependence_cycle_names_the_supernode(plan, monkeypatch):
    victim = plan.n_supernodes // 2
    build = FactorizationPlan.task_graph

    def cyclic(self, sn, order="bf"):
        graph = build(self, sn, order)
        if sn == victim:
            graph.deps[0].append(0)  # task 0 waits on itself
        return graph

    monkeypatch.setattr(FactorizationPlan, "task_graph", cyclic)
    with pytest.raises(SimulationStuck, match="unfinished") as stuck:
        SpatulaSim(plan, SpatulaConfig.tiny()).run()
    report = stuck.value.report
    blocked = [g for g in report["generators"] if g["sn"] == victim]
    assert blocked == [{"sn": victim, "head": 0, "head_indegree": 1,
                        "done": f"0/{build(plan, victim).n_tasks}"}]
    assert f"'sn': {victim}" in str(stuck.value)
    assert sum(report["pe_pending"]) == 0
    assert report["supernodes"]["completed"].endswith(
        f"/{plan.n_supernodes}")


@pytest.mark.parametrize("limit", [dict(max_events=10), dict(max_cycles=50)])
def test_limit_trips_on_a_healthy_run(plan, limit):
    with pytest.raises(SimulationStuck, match="watchdog") as stuck:
        SpatulaSim(plan, SpatulaConfig.tiny()).run(**limit)
    report = stuck.value.report
    assert report["generators"]
    assert len(report["pe_pending"]) == SpatulaConfig.tiny().n_pes
    assert isinstance(stuck.value, AssertionError)


def test_limits_above_the_run_change_nothing(plan):
    cfg = SpatulaConfig.tiny()
    free = SpatulaSim(plan, cfg).run()
    bounded = SpatulaSim(plan, cfg).run(max_cycles=free.cycles,
                                        max_events=10**9)
    assert bounded.cycles == free.cycles


def test_solve_sweep_reports_its_dependence_state(plan):
    tree = plan.symbolic.tree
    root = next(sn for sn in tree.supernodes if sn.parent < 0)
    orphan = root.children.pop()  # the forward sweep now waits forever
    try:
        with pytest.raises(SimulationStuck, match="solve sweep") as stuck:
            SolveSim(plan, SpatulaConfig.tiny()).run()
    finally:
        root.children.append(orphan)
    report = stuck.value.report
    assert report["ready"] == [] and report["deps_left"]

"""Solve-phase bench: the Figure 2 amortization story.

Not a numbered exhibit, but the paper's framing ("Numeric Factorization
(Slow) ... Triangular Solve (fast)") made quantitative: one factorization
on Spatula vs one forward+backward triangular solve pass on the same
machine.
"""

from repro.arch.sim import SpatulaSim
from repro.arch.solve import simulate_solve
from repro.eval.experiments import _plan_for, analyze_suite_matrix


def test_solve_phase_amortization(settings, chol_names):
    def run():
        rows = []
        for name in chol_names:
            analyze_suite_matrix(name, settings)
            plan = _plan_for(name, settings)
            factor = SpatulaSim(plan, settings.config).run()
            solve = simulate_solve(plan, settings.config)
            rows.append((name, factor, solve))
        return rows

    rows = run()
    print("\nFactorization vs triangular solve (cycles)")
    print(f"{'Matrix':<14}{'factor':>10}{'solve':>10}{'ratio':>8}"
          f"{'solve GB/s':>12}")
    for name, factor, solve in rows:
        print(f"{name:<14}{factor.cycles:>10}{solve.cycles:>10}"
              f"{factor.cycles / solve.cycles:>8.1f}"
              f"{solve.avg_bandwidth_gbs:>12.0f}")
    for _name, factor, solve in rows:
        # The Figure 2 premise: solving is cheap relative to factoring.
        assert solve.cycles < factor.cycles

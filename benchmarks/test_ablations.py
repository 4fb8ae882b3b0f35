"""Ablation benches for the design choices DESIGN.md calls out.

Not a paper exhibit per se, but each ablation validates one of the
paper's stated design arguments:

* Section 5.1 — breadth-first emission vs a fixed-dimension order
  ("multiple times slower on small supernodes");
* Section 5.1 — in-order dispatch vs an out-of-order dataflow window
  ("negligible overall performance gains, less than 10% in all cases");
* Section 5.2 — post-order min-heap supernode ordering vs FIFO
  (minimizes the live-data footprint);
* Section 4.3 — task slots: decoupled operand fetch needs more than one
  slot to hide memory latency.
"""

from dataclasses import replace

from repro.arch.sim import SpatulaSim
from repro.eval.experiments import analyze_suite_matrix, _plan_for


def _run(plan, config):
    return SpatulaSim(plan, config).run()


def test_ablations(settings):
    base = settings.config
    names = ["bone010", "G3_circuit"]

    def run_all():
        results = {}
        for name in names:
            analyze_suite_matrix(name, settings)
            plan = _plan_for(name, settings)
            results[name] = {
                "base": _run(plan, base),
                "rowmajor": _run(plan, replace(base, order="rowmajor")),
                "dataflow": _run(plan, replace(base, dataflow_window=16)),
                "fifo": _run(plan, replace(base, sn_order="fifo")),
                "one_slot": _run(plan, replace(base, task_slots=1)),
            }
        return results

    results = run_all()
    print("\nAblations (cycles; lower is better)")
    header = f"{'Matrix':<14}{'base':>10}{'rowmajor':>10}{'dataflow':>10}" \
             f"{'fifo':>10}{'1 slot':>10}"
    print(header)
    for name, r in results.items():
        print(f"{name:<14}{r['base'].cycles:>10}{r['rowmajor'].cycles:>10}"
              f"{r['dataflow'].cycles:>10}{r['fifo'].cycles:>10}"
              f"{r['one_slot'].cycles:>10}")
    print("\nPeak live footprint (KB): postorder vs fifo")
    for name, r in results.items():
        print(f"{name:<14}{r['base'].peak_live_front_bytes // 1024:>10}"
              f"{r['fifo'].peak_live_front_bytes // 1024:>10}")

    for name, r in results.items():
        # Section 5.1: breadth-first never loses to the fixed order.
        assert r["base"].cycles <= r["rowmajor"].cycles
        # Section 5.1: out-of-order dispatch gains are small (<10%).
        assert r["dataflow"].cycles >= 0.9 * r["base"].cycles
        # Section 5.2: the post-order heap keeps footprint at or below
        # FIFO's (directional — dynamic interleaving adds a little noise
        # per matrix, so allow a small tolerance).
        assert r["base"].peak_live_front_bytes \
            <= 1.15 * r["fifo"].peak_live_front_bytes
        # Section 4.3: removing decoupling slots cannot speed things up.
        assert r["one_slot"].cycles >= r["base"].cycles

"""Figure 5: baseline GFLOP/s on four representative LU matrices."""

from repro.eval import EvalSettings, figure5


def test_figure5_baseline_performance():
    # Full-scale matrices: this experiment runs only the symbolic
    # analysis plus the analytic baseline models, so it is cheap, and
    # the structural contrast it demonstrates needs the real sizes.
    full = EvalSettings(scale=1.0)
    rows = figure5(full)
    print("\nFigure 5: baseline GFLOP/s (GPU vs CPU)")
    print(f"{'Matrix':<14}{'GPU GFLOP/s':>13}{'CPU GFLOP/s':>13}")
    for r in rows:
        print(f"{r['matrix']:<14}{r['gpu_gflops']:>13.1f}"
              f"{r['cpu_gflops']:>13.1f}")
    by_name = {r["matrix"]: r for r in rows}
    # The paper's headline contrast: the GPU does far better on
    # atmosmodd (large supernodes) than on FullChip (tiny supernodes),
    # where the CPU closes most of the gap.
    assert by_name["atmosmodd"]["gpu_gflops"] \
        > 3 * by_name["FullChip"]["gpu_gflops"]
    gpu_adv_atmos = (by_name["atmosmodd"]["gpu_gflops"]
                     / by_name["atmosmodd"]["cpu_gflops"])
    gpu_adv_chip = (by_name["FullChip"]["gpu_gflops"]
                    / by_name["FullChip"]["cpu_gflops"])
    assert gpu_adv_atmos > gpu_adv_chip

"""Table 5: STRUMPACK-style GPU model across V100 / A100 / H100."""

from repro.eval import table5


def test_table5_gpu_generations(settings, lu_names):
    rows = table5(settings, lu_names)
    print("\nTable 5: baseline GPU generations (LU subset)")
    print(f"{'GPU':<8}{'gmean GFLOP/s':>15}{'gmean util %':>14}")
    for r in rows:
        print(f"{r['gpu']:<8}{r['gmean_gflops']:>15.1f}"
              f"{r['gmean_util_pct']:>13.2f}%")
    v100, a100, h100 = rows
    # The paper's findings: newer GPUs are faster in absolute terms but
    # H100 has the worst utilization of the three.
    assert a100["gmean_gflops"] >= v100["gmean_gflops"]
    assert h100["gmean_util_pct"] < v100["gmean_util_pct"]

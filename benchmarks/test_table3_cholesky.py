"""Table 3: sparse Cholesky performance and speedups over GPU/CPU."""

from repro.eval import render_suite_table, table3
from repro.eval.experiments import gmean


def test_table3_cholesky(settings, chol_names):
    rows = table3(settings, chol_names)
    print("\n" + render_suite_table(
        rows, "Table 3: sparse Cholesky (representative subset)"))
    # Paper shape: Spatula wins everywhere; achieved TFLOP/s decreases
    # from the big-front matrices toward the small-front ones.
    assert all(r.speedup_vs_gpu > 1 and r.speedup_vs_cpu > 1 for r in rows)
    assert gmean(r.speedup_vs_gpu for r in rows) > 3

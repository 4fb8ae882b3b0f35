"""Table 4: sparse LU performance and speedups over GPU/CPU."""

from repro.eval import render_suite_table, table4
from repro.eval.experiments import gmean


def test_table4_lu(settings, lu_names):
    rows = table4(settings, lu_names)
    print("\n" + render_suite_table(
        rows, "Table 4: sparse LU (representative subset)"))
    assert all(r.speedup_vs_gpu > 1 and r.speedup_vs_cpu > 1 for r in rows)
    assert gmean(r.speedup_vs_cpu for r in rows) > 3

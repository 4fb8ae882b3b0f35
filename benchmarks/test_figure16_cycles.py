"""Figure 16: PE cycle breakdown by task type."""

from repro.eval import figure16, render_cycle_breakdown, table3, table4


def test_figure16_cycle_breakdown(settings, chol_names, lu_names):
    def run():
        return (table3(settings, chol_names), table4(settings, lu_names))

    chol, lu = run()
    print("\n" + render_cycle_breakdown(figure16(chol),
                                        "Figure 16 (Cholesky)"))
    print(render_cycle_breakdown(figure16(lu), "Figure 16 (LU)"))
    for rows in (chol, lu):
        for entry in figure16(rows):
            # dgemm must be the dominant compute task type, as in the
            # paper, and the breakdown must be a valid partition.
            compute = {k: v for k, v in entry.items() if k != "matrix"}
            assert abs(sum(compute.values()) - 1.0) < 1e-6
            assert entry["dgemm"] >= entry["tsolve"]
    for entry in figure16(chol):
        assert entry["dlu"] == 0.0
    for entry in figure16(lu):
        assert entry["dchol"] == 0.0

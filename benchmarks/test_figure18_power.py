"""Figure 18: power breakdown by component."""

from repro.eval import figure18, render_power, table3, table4


def test_figure18_power(settings, chol_names, lu_names):
    def run():
        return table3(settings, chol_names) + table4(settings, lu_names)

    rows = run()
    entries = figure18(rows)
    print("\n" + render_power(entries, "Figure 18: power breakdown"))
    for e in entries:
        assert 0 < e["Total"] < 250  # same ballpark as the paper's 146 W
        assert e["PEs"] > 0 and e["HBM"] > 0

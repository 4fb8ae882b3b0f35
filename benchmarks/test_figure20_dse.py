"""Figure 20: design-space exploration (speedup vs area)."""

from repro.eval import figure20, render_dse


def test_figure20_design_space(settings):
    sweep = [
        (8, 16, 4.0, 1),
        (16, 16, 8.0, 1),
        (32, 16, 16.0, 2),   # selected (Table 2)
        (64, 16, 16.0, 2),
        (32, 8, 16.0, 2),
    ]
    names = ["bone010", "bmwcra_1"]
    points = figure20(settings=settings, names=names, sweep=sweep)
    print("\n" + render_dse(points, "Figure 20: area vs gmean speedup"))
    by_pes = {(p["n_pes"], p["tile"]): p for p in points}
    # Scaling shape: bigger configurations are at least as fast.
    assert by_pes[(64, 16)]["gmean_speedup"] \
        >= by_pes[(8, 16)]["gmean_speedup"]
    # And area grows monotonically with PE count.
    assert by_pes[(64, 16)]["area_mm2"] > by_pes[(32, 16)]["area_mm2"] \
        > by_pes[(8, 16)]["area_mm2"]

"""Figure 17: DRAM traffic breakdown and average bandwidth."""

from repro.eval import figure17, render_traffic, table3


def test_figure17_data_movement(settings, chol_names):
    rows = table3(settings, chol_names)
    entries = figure17(rows)
    print("\n" + render_traffic(entries, "Figure 17 (Cholesky)"))
    cfg = settings.config
    peak_gbs = cfg.hbm_phys * cfg.hbm_gbs_per_phy
    for e in entries:
        assert 0 < e["avg_gbs"] <= peak_gbs
        fractions = [e[k] for k in ("comp_load", "gather_load",
                                    "factor_load", "store_spill",
                                    "store_result")]
        assert abs(sum(fractions) - 1.0) < 1e-6
        # Spills are re-read roughly once (paper: ~1:1 ratio), so
        # non-compulsory loads shouldn't wildly exceed spills.
        noncomp = e["gather_load"] + e["factor_load"]
        assert noncomp <= 3 * e["store_spill"] + 0.05

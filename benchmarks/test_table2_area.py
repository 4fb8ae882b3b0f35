"""Table 2: Spatula configuration and area breakdown."""

from repro.arch.config import SpatulaConfig
from repro.eval import table2


def test_table2_area(settings):
    areas = table2(settings)
    cfg = SpatulaConfig.paper()
    print("\nTable 2: Spatula configuration and area")
    print(f"  PEs: {cfg.n_pes} x {cfg.tile}x{cfg.tile} systolic @ "
          f"{cfg.freq_ghz} GHz -> peak {cfg.peak_tflops:.3f} TFLOP/s")
    print(f"  Cache: {cfg.cache_mb:.0f} MB, {cfg.cache_banks} banks, "
          f"{cfg.cache_ways}-way, {cfg.tile_bytes} B lines")
    print(f"  HBM: {cfg.hbm_phys} PHYs "
          f"({cfg.hbm_phys * cfg.hbm_gbs_per_phy:.0f} GB/s)")
    for part, mm2 in areas.items():
        print(f"  {part:<12} {mm2:7.1f} mm^2")
    assert abs(areas["Total"] - 107.7) < 0.5  # the paper's total

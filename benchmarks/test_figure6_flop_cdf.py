"""Figure 6: CDF of FLOPs by supernode size for two extreme matrices."""

import numpy as np

from repro.eval import EvalSettings, figure6, render_cdf


def test_figure6_flop_cdfs():
    # Full scale: symbolic-only, and the supernode-size contrast is the
    # entire point of the figure.
    full = EvalSettings(scale=1.0)
    out = figure6(full)
    print("\nFigure 6: CDF of FLOPs by supernode size")
    for name, (sizes, cdf) in out.items():
        print(" ", render_cdf(name, sizes, cdf, "size"))
    atmos_sizes, atmos_cdf = out["atmosmodd"]
    chip_sizes, chip_cdf = out["FullChip"]
    # Paper shape: atmosmodd's FLOPs concentrate in much larger
    # supernodes than FullChip's.
    def median_size(sizes, cdf):
        return sizes[int(np.searchsorted(cdf, 0.5))]
    assert median_size(atmos_sizes, atmos_cdf) \
        > median_size(chip_sizes, chip_cdf)

"""Figure 7: GPU dense LU performance across matrix sizes."""

import numpy as np

from repro.eval import figure7


def test_figure7_dense_curve():
    sizes, curve = figure7()
    print("\nFigure 7: GPU dense LU GFLOP/s vs size")
    for i in range(0, len(sizes), len(sizes) // 8):
        bar = "#" * int(40 * curve[i] / curve.max())
        print(f"  n={sizes[i]:>6}  {curve[i]:>7.0f} GFLOP/s  {bar}")
    # Paper shape: flattens around 20000, linear below 10000.
    assert curve[np.searchsorted(sizes, 20000)] == curve.max()
    i5k = np.searchsorted(sizes, 5000)
    i10k = np.searchsorted(sizes, 10000)
    assert abs(curve[i10k] / curve[i5k] - 2.0) < 0.2

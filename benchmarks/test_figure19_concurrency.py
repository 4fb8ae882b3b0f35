"""Figure 19: CDFs of concurrently executing supernodes."""

from repro.eval import figure19, render_cdf


def test_figure19_concurrency(settings):
    names = ["af_0_k101", "G3_circuit", "FullChip", "rajat31"]
    out = figure19(settings, names)
    print("\nFigure 19: concurrent-supernode CDFs")
    for name, (levels, cdf) in out.items():
        print(" ", render_cdf(name, levels, cdf, "sn"))
    for name, (levels, cdf) in out.items():
        assert levels.min() >= 1
        assert abs(cdf[-1] - 1.0) < 1e-9
        # The flexible scheduler must actually overlap supernodes
        # somewhere on these small-supernode matrices.
        assert levels.max() >= 2

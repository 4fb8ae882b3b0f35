"""Figure 14: scheduler policy comparison (Inter / Intra / Intra+Inter)."""

from repro.eval import figure14


def test_figure14_scheduling_policies(settings):
    names = ["Emilia_923", "boneS10", "bmwcra_1", "G3_circuit"]
    rows = figure14(settings, names)
    print("\nFigure 14: achieved GFLOP/s per scheduling policy")
    print(f"{'Matrix':<14}{'inter':>10}{'intra':>10}{'intra+inter':>13}")
    for r in rows:
        print(f"{r['matrix']:<14}{r['inter']:>10.1f}{r['intra']:>10.1f}"
              f"{r['intra+inter']:>13.1f}")
    for r in rows:
        # The paper's point: the combined policy dominates both.
        assert r["intra+inter"] >= 0.99 * r["inter"]
        assert r["intra+inter"] >= 0.99 * r["intra"]
    # And inter-only is terrible on big-supernode matrices.
    emilia = rows[0]
    assert emilia["intra+inter"] > 1.5 * emilia["inter"]

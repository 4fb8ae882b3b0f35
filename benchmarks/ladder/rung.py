"""Child-process entry: run one rung, print its result as one JSON line.

``run.py`` starts one of these per rung so each has a clean
``AnalysisCache`` and its own peak RSS.  Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

LADDER_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(LADDER_DIR)), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("rung")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sys.path.insert(0, SRC_DIR)
    import numpy

    def reps(nominal: int, floor: int = 1) -> int:
        return max(floor, round(nominal * args.scale))

    role, _, name = args.rung.partition("_")
    traced = bool(args.trace)
    if role == "cold":
        from solver_rungs import cold
        result = cold(name, args.seed, reps, traced)
    elif role == "warm":
        from solver_rungs import warm
        result = warm(name, args.seed, reps, traced)
    elif role == "sim":
        from sim_rung import sim
        result = sim(name, args.seed, reps, traced)
    elif role == "serve":
        from serve_rung import serve
        result = serve(name, args.seed, reps, traced, SRC_DIR)
    else:
        parser.error(f"unknown rung {args.rung!r}")
    # Serve rungs report the server's RSS; the others run repro here.
    result.setdefault(
        "rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["numpy"] = numpy.__version__
    print(json.dumps(result, default=lambda o: o.item()))   # numpy scalars
    return 0


if __name__ == "__main__":
    sys.exit(main())

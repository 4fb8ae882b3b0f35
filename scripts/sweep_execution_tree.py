"""Sweep the numeric engine's merge constants (docs/PERFORMANCE.md,
"Execution supernodes").

For each cell — ``MERGE_WIDTH`` x ``MERGE_FRONT`` at ``MERGE_RATIO`` 0.3,
plus ``off`` (no merge: the symbolic tree) — and each matrix, prints the
execution supernodes, grouped / ungrouped fronts (``GROUP_FRONT_MAX``),
the factor buffer, the ``dgetrf`` pivot blocks that fell back to the
per-pivot loop (LU), and median [quartiles] of ``refactorize``, a k = 1
and a k = 32 ``solve`` in ms.  Solvers of one matrix live side by side
and are called alternately, order reversed every round; the largest
matrix runs one cell at a time to bound memory.  ``--rss`` prints
instead the peak RSS of the ladder's warm rungs (scale 0.3, median of
three runs) per cell.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python scripts/sweep_execution_tree.py [--rounds 15] [--rss]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

from repro.numeric import SparseSolver, compiled, engine
from repro.numeric.engine import numeric_context
from repro.sparse import circuit_like, grid_laplacian_3d

WIDTHS = (8, 16, 24, 32)
FRONTS = (0, 64, 96)
CELLS = [("off", 0, 0)] + [(f"{w}/{f}", w, f)
                           for w in WIDTHS for f in FRONTS]

#: The ladder's solver matrices and serve tenants (seed 2023) and two
#: larger instances of the same families.  name -> (kind, generator,
#: alternate cells side by side).
MATRICES = {
    "circuit_lu": ("lu", lambda: circuit_like(
        12000, hub_fraction=0.02, aspect=12, seed=2023), True),
    "spd3d": ("cholesky", lambda: grid_laplacian_3d(20, 20, 20,
                                                    seed=2023), True),
    "tenant_lu": ("lu", lambda: circuit_like(
        2000, hub_fraction=0.05, aspect=16, seed=2023), True),
    "tenant_spd": ("cholesky", lambda: grid_laplacian_3d(12, 12, 12,
                                                         seed=2023), True),
    "circuit_like(40000)": ("lu", lambda: circuit_like(
        40000, hub_fraction=0.02, aspect=12, seed=2023), True),
    "grid_laplacian_3d(30)": ("cholesky", lambda: grid_laplacian_3d(
        30, 30, 30, seed=2023), False),
}
WARM_RUNGS = {"circuit_lu": "warm_circuit_lu", "spd3d": "warm_spd3d"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LADDER = os.path.join(ROOT, "benchmarks", "ladder")


def _set(width: int, front: int) -> None:
    engine.MERGE_WIDTH, engine.MERGE_FRONT = width, front


def _build(a, kind, width, front) -> SparseSolver:
    _set(width, front)
    return SparseSolver(a, kind, use_cache=False)


def _shape(solver: SparseSolver, amax: float) -> dict:
    """Structure of one cell, and its dgetrf fallbacks in one refactorize
    (the accept rule of the compiled core's LU pivot block, spied on)."""
    ctx = numeric_context(solver.symbolic, solver._matrix)
    sizes = np.array([sn.front_size for sn in ctx.tree.supernodes])
    fallbacks = []
    if solver.kind == "lu":
        perturb = np.sqrt(np.finfo(np.float64).eps) * amax
        ffi, table = compiled.ffi, compiled.lib.repro_blas
        real = table.dgetrf

        def spy(m, n, a, lda, ipiv, info):
            real(m, n, a, lda, ipiv, info)
            w = n[0]
            lu = np.frombuffer(ffi.buffer(a, 8 * w * w)).reshape(w, w)
            fallbacks.append(not (
                info[0] == 0 and list(ipiv[0:w]) == list(range(1, w + 1))
                and np.abs(lu.diagonal()).min() >= perturb
                and np.isfinite(lu).all()))

        table.dgetrf = callback = ffi.callback("repro_dgetrf_t", spy)
        try:
            solver.factorize()
        finally:
            table.dgetrf = real
            del callback
    return {
        "supernodes": len(sizes),
        "grouped": int((sizes <= engine.GROUP_FRONT_MAX).sum()),
        "ungrouped": int((sizes > engine.GROUP_FRONT_MAX).sum()),
        "buffer_mib": float(ctx.pr_off[-1]) * 8 / 2**20,
        "dgetrf": f"{sum(fallbacks)}/{len(fallbacks)}" if fallbacks
        else "—",
    }


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _rounds(solvers: dict, a, rounds: int, samples: dict) -> None:
    rng = np.random.default_rng(2023)
    b1 = rng.standard_normal(a.n_rows)
    b32 = rng.standard_normal((a.n_rows, 32))
    order = list(solvers)
    for r in range(rounds + 1):       # round 0 warms up
        for name in (order if r % 2 else order[::-1]):
            s = solvers[name]
            times = (_time(lambda: s.refactorize(a)),
                     _time(lambda: s.solve(b1)),
                     _time(lambda: s.solve(b32)))
            if r:
                for key, t in zip(("refactorize", "k1", "k32"), times):
                    samples[name][key].append(t)


def _rss(rung: str, width: int, front: int, runs: int = 3) -> float:
    code = (
        "import runpy, sys\n"
        "import repro.numeric.engine as e\n"
        f"e.MERGE_WIDTH, e.MERGE_FRONT = {width}, {front}\n"
        f"sys.argv = ['rung.py', '{rung}', '--seed', '2023', "
        "'--scale', '0.3', '--trace', '0']\n"
        "runpy.run_path('rung.py', run_name='__main__')\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([LADDER,
                                           os.path.join(ROOT, "src")]))
    got = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", code], cwd=LADDER,
                             env=env, check=True, capture_output=True,
                             text=True).stdout
        got.append(json.loads(out.splitlines()[-1])["rss_mb"])
    return float(np.median(got))


def _fmt(xs: list[float]) -> str:
    q1, q2, q3 = np.percentile(xs, [25, 50, 75])
    digits = 1 if q2 >= 10 else 2
    return f"{q2:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--matrix", action="append",
                        choices=sorted(MATRICES))
    parser.add_argument("--rss", action="store_true")
    args = parser.parse_args()
    if args.rss:
        # Run while this process is small: a child inherits its parent's
        # peak RSS across fork and exec.
        print("| cell | " + " | ".join(WARM_RUNGS.values()) + " |")
        print("|---" * (1 + len(WARM_RUNGS)) + "|")
        for cell, w, f in CELLS:
            print(f"| {cell} | " + " | ".join(
                f"{_rss(rung, w, f):.1f}" for rung in WARM_RUNGS.values())
                + " |", flush=True)
        return 0
    default = (engine.MERGE_WIDTH, engine.MERGE_FRONT)
    for name in args.matrix or MATRICES:
        kind, gen, side_by_side = MATRICES[name]
        a = gen()
        amax = float(np.abs(a.data).max())
        samples = {cell: {"refactorize": [], "k1": [], "k32": []}
                   for cell, _, _ in CELLS}
        shapes = {}
        if side_by_side:
            solvers = {cell: _build(a, kind, w, f) for cell, w, f in CELLS}
            shapes = {cell: _shape(s, amax) for cell, s in solvers.items()}
            _rounds(solvers, a, args.rounds, samples)
            del solvers
        else:
            for cell, w, f in CELLS:
                solver = _build(a, kind, w, f)
                shapes[cell] = _shape(solver, amax)
                _rounds({cell: solver}, a, max(3, args.rounds // 3),
                        samples)
                del solver
        print(f"\n### {name} ({kind}, n = {a.n_rows})\n")
        print("| cell | supernodes | grouped / ungrouped | buffer MiB | "
              "dgetrf fallbacks | refactorize ms | k = 1 ms | k = 32 ms |")
        print("|---" * 8 + "|")
        for cell, w, f in CELLS:
            sh, t = shapes[cell], samples[cell]
            row = (f"| {cell} | {sh['supernodes']} | {sh['grouped']} / "
                   f"{sh['ungrouped']} | {sh['buffer_mib']:.1f} | "
                   f"{sh['dgetrf']} | {_fmt(t['refactorize'])} | "
                   f"{_fmt(t['k1'])} | {_fmt(t['k32'])} |")
            print(row, flush=True)
    _set(*default)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The cold and warm solver rungs.

Untraced, each operation is one opaque call into the public API (what a
user runs).  Traced, the cold operation is replayed stage by stage —
pivot -> order -> symbolic -> context -> factor -> solve — through the
same public functions ``SparseSolver`` calls, one span per stage, and the
replayed solution must equal the opaque one bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

import inputs
from spans import Tracer, unaccounted_frac
from timing import measure, median, summarize

from repro.numeric.cache import analysis_cache
from repro.numeric.cholesky import multifrontal_cholesky
from repro.numeric.engine import numeric_context, row_permutation_data_map
from repro.numeric.lu import multifrontal_lu
from repro.numeric.solver import SparseSolver
from repro.numeric.supernodal_solve import cholesky_solve, lu_solve
from repro.ordering import fill_reducing_ordering
from repro.ordering.pivoting import apply_static_pivoting
from repro.symbolic.analyze import symbolic_factorize
from repro.symbolic.assembly import build_assembly_tree
from repro.symbolic.etree import elimination_tree, postorder
from repro.symbolic.structure import column_structures
from repro.symbolic.supernodes import find_supernodes

#: Nominal repetitions at ``--seconds`` = BENCHMARK.json's run_seconds.
COLD_REPEAT = 8
WARM_WARMUP, WARM_REPEAT = 2, 20
TRACED_REPEAT = 5           # staged replays per traced rung
TRACED_OPAQUE_REPEAT = 3    # opaque ops beside them, for trace overhead


def _cold_op(a, kind, b):
    analysis_cache().clear()
    return SparseSolver(a, kind, use_cache=False).solve(b)


def cold(name: str, seed: int, reps, traced: bool) -> dict:
    gate = inputs.Gate()
    t_setup = time.perf_counter()
    t_gen = time.perf_counter()
    a, kind, _ = inputs.matrix(name, seed)
    generate_s = time.perf_counter() - t_gen
    n_opaque = reps(TRACED_OPAQUE_REPEAT if traced else COLD_REPEAT)
    n_ops = max(n_opaque, reps(TRACED_REPEAT))
    bs = inputs.rng(seed, 1).standard_normal((n_ops, a.n_rows))
    small, _, _ = inputs.matrix("warmup_" + name, seed)
    _cold_op(small, kind, np.ones(small.n_rows))
    setup_s = time.perf_counter() - t_setup

    opaque_xs: list[np.ndarray] = []

    def opaque(i, lap):
        with lap("cold_solve_s"):
            x = _cold_op(a, kind, bs[i])
        gate.check_residual(a, kind, x, bs[i], f"cold op {i}")
        opaque_xs.append(x)

    out = {"setup_s": setup_s, "e2e": {}, "layers": {}, "spans": []}
    untraced = measure(opaque, warmup=0, repeat=n_opaque)
    if not traced:
        out["e2e"]["cold_solve_s"] = summarize(untraced["cold_solve_s"])
    else:
        layers, spans = _cold_traced(a, kind, bs, opaque_xs,
                                     reps(TRACED_REPEAT), gate)
        layers["sparse.generate_s"] = generate_s
        layers["trace.overhead_frac.cold"] = (
            layers.pop("_op_median") / median(untraced["cold_solve_s"])
            - 1.0)
        out["layers"], out["spans"] = layers, spans
    out["layers"]["numeric.residual_max"] = gate.residual_max
    out.update(attempted=gate.attempted, failed=gate.failed,
               reasons=gate.reasons)
    return out


def _cold_traced(a, kind, bs, opaque_xs, repeat: int, gate: inputs.Gate
                 ) -> tuple[dict, list[dict]]:
    tr = Tracer()
    roots: list[int] = []
    counts: list[tuple] = []
    for i in range(repeat):
        b = bs[i]
        analysis_cache().clear()
        with tr.span("cold_solve", op=f"cold{i}") as root:
            work, row_perm = a, None
            if kind == "lu":
                with tr.span("ordering.static_pivot"):
                    work, row_perm = apply_static_pivoting(a)
                    row_permutation_data_map(a, row_perm)
            with tr.span("ordering.amd"):
                perm = fill_reducing_ordering(work, "amd")
            with tr.span("symbolic.analyze"):
                sym = symbolic_factorize(work, kind=kind, perm=perm)
            with tr.span("numeric.engine.context"):
                numeric_context(sym, work)
            with tr.span("numeric.factor"):
                factor = (multifrontal_cholesky(work, sym)
                          if kind == "cholesky"
                          else multifrontal_lu(work, sym))
            with tr.span("numeric.solve_k1"):
                pb = b[sym.perm] if row_perm is None \
                    else b[row_perm][sym.perm]
                px = (cholesky_solve(factor, pb) if kind == "cholesky"
                      else lu_solve(factor, pb))
                x = np.empty_like(px)
                x[sym.perm] = px
        roots.append(root)
        gate.check_residual(a, kind, x, b, f"traced cold op {i}")
        if i < len(opaque_xs):
            # The replay must be the opaque call, stage for stage.
            gate.check(np.array_equal(x, opaque_xs[i]),
                       f"traced cold op {i}: replay differs from "
                       "SparseSolver(A).solve(b)")
        _replay_symbolic(tr, work, kind, perm, sym, gate, op=f"sym{i}")
        counts.append((sym.factor_nnz, sym.flops, sym.n_supernodes))
    gate.check(len(set(counts)) == 1,
               f"cold counts differ across repetitions: {set(counts)}")
    factor_nnz, flops, n_supernodes = counts[0]

    # Analysis-cache layer: one miss fills it, every later ctor hits.
    cache = analysis_cache()
    cache.clear()
    before = cache.stats()
    SparseSolver(a, kind)

    def hit_ctor(i, lap):
        with lap("hit_ctor"):
            SparseSolver(a, kind)

    hit_ctor_s = median(measure(hit_ctor, warmup=0,
                                 repeat=repeat)["hit_ctor"])
    after = cache.stats()

    def stage(span_name: str) -> float:
        per_op = [sum(tr.duration(c) for c in tr.children(r)
                      if tr.spans[c]["name"] == span_name)
                  for r in roots]
        return median(per_op)

    def sub(span_name: str) -> float:
        return median([tr.duration(i) for i, s in enumerate(tr.spans)
                        if s["name"] == span_name])

    factor_s = stage("numeric.factor")
    layers = {
        "_op_median": median([tr.duration(r) for r in roots]),
        "ordering.static_pivot_s": stage("ordering.static_pivot"),
        "ordering.amd_s": stage("ordering.amd"),
        "ordering.fill_ratio": factor_nnz / a.nnz,
        "ordering.flops": flops,
        "symbolic.analyze_s": stage("symbolic.analyze"),
        "symbolic.etree_s": sub("symbolic.etree"),
        "symbolic.structure_s": sub("symbolic.structure"),
        "symbolic.supernodes_s": sub("symbolic.supernodes"),
        "symbolic.assembly_tree_s": sub("symbolic.assembly_tree"),
        "symbolic.n_supernodes": n_supernodes,
        "symbolic.factor_nnz": factor_nnz,
        "numeric.engine.context_s": stage("numeric.engine.context"),
        "numeric.cache.hit_ctor_s": hit_ctor_s,
        "numeric.cache.hits": after["hits"] - before["hits"],
        "numeric.cache.misses": after["misses"] - before["misses"],
        "numeric.factor_s": factor_s,
        "numeric.factor_gflops": flops / factor_s / 1e9,
        "closure.unaccounted_frac.cold": unaccounted_frac(tr, roots),
    }
    return layers, tr.spans


def _replay_symbolic(tr: Tracer, work, kind: str, perm, sym,
                     gate: inputs.Gate, op: str) -> None:
    """``symbolic_factorize``'s sub-calls in its own order, one span
    each, so a symbolic change shows which step moved."""
    def pattern(m):
        return m if kind == "cholesky" else m.pattern_symmetrized()

    with tr.span("symbolic.replay", op=op):
        with tr.span("symbolic.etree"):
            permuted = work.permuted(perm)
            parent = elimination_tree(pattern(permuted))
            post = postorder(parent)
            if not np.array_equal(post, np.arange(len(post))):
                permuted = work.permuted(perm[post])
                parent = elimination_tree(pattern(permuted))
        with tr.span("symbolic.structure"):
            structs = column_structures(pattern(permuted), parent)
            nnz = sum(len(s) for s in structs)
        with tr.span("symbolic.supernodes"):
            supernodes = find_supernodes(parent, structs)
        with tr.span("symbolic.assembly_tree"):
            tree = build_assembly_tree(work.n_rows, supernodes)
    gate.check(nnz == sym.factor_nnz
               and tree.n_supernodes == sym.n_supernodes,
               "symbolic replay disagrees with symbolic_factorize")


def warm(name: str, seed: int, reps, traced: bool) -> dict:
    gate = inputs.Gate()
    t_setup = time.perf_counter()
    a, kind, _ = inputs.matrix(name, seed)
    solver = SparseSolver(a, kind)
    warmup = WARM_WARMUP if reps(WARM_REPEAT) > 1 else 0
    n_opaque = max(1, reps(WARM_REPEAT) // 2) if traced \
        else reps(WARM_REPEAT)
    n_steps = warmup + n_opaque + (reps(TRACED_REPEAT) if traced else 0)
    gen = inputs.rng(seed, 2)
    steps = [(inputs.perturbed(a, kind, gen),
              gen.standard_normal(a.n_rows),
              gen.standard_normal((a.n_rows, 32)))
             for _ in range(n_steps)]
    setup_s = time.perf_counter() - t_setup

    def opaque(i, lap):
        a_t, b_t, panel_t = steps[i]
        with lap("warm_step_s"):
            solver.refactorize(a_t)
            x = solver.solve(b_t)
        with lap("solve_k32_s"):
            xs = solver.solve(panel_t)
        gate.check_residual(a_t, kind, x, b_t, f"warm step {i}")
        gate.check_residual(a_t, kind, xs, panel_t, f"k=32 panel {i}")

    out = {"setup_s": setup_s, "e2e": {}, "layers": {}, "spans": []}
    untraced = measure(opaque, warmup=warmup, repeat=n_opaque)
    if not traced:
        for metric in ("warm_step_s", "solve_k32_s"):
            out["e2e"][metric] = summarize(untraced[metric])
    else:
        layers, spans = _warm_traced(solver, kind,
                                     steps[warmup + n_opaque:], gate)
        layers["trace.overhead_frac.warm"] = (
            layers.pop("_op_median") / median(untraced["warm_step_s"])
            - 1.0)
        out["layers"], out["spans"] = layers, spans
    out["layers"]["numeric.residual_max"] = gate.residual_max
    out.update(attempted=gate.attempted, failed=gate.failed,
               reasons=gate.reasons)
    return out


def _warm_traced(solver: SparseSolver, kind: str, steps: list,
                 gate: inputs.Gate) -> tuple[dict, list[dict]]:
    tr = Tracer()
    roots: list[int] = []
    k32: list[float] = []
    for i, (a_t, b_t, panel_t) in enumerate(steps):
        with tr.span("warm_step", op=f"warm{i}") as root:
            with tr.span("numeric.refactorize"):
                solver.refactorize(a_t)
            with tr.span("numeric.solve_k1"):
                x = solver.solve(b_t)
        roots.append(root)
        with tr.span("numeric.solve_k32", op=f"warm{i}") as panel:
            xs = solver.solve(panel_t)
        k32.append(tr.duration(panel))
        gate.check_residual(a_t, kind, x, b_t, f"traced warm step {i}")
        gate.check_residual(a_t, kind, xs, panel_t,
                            f"traced k=32 panel {i}")

    def stage(span_name: str) -> float:
        return median([tr.duration(c) for r in roots
                        for c in tr.children(r)
                        if tr.spans[c]["name"] == span_name])

    k1_s, k32_s = stage("numeric.solve_k1"), median(k32)
    layers = {
        "_op_median": median([tr.duration(r) for r in roots]),
        "numeric.refactorize_s": stage("numeric.refactorize"),
        "numeric.solve_k1_s": k1_s,
        "numeric.solve_k32_s": k32_s,
        "numeric.solve_k32_speedup": 32.0 * k1_s / k32_s,
        "closure.unaccounted_frac.warm": unaccounted_frac(tr, roots),
    }
    return layers, tr.spans

"""Ordering quality harness: score any permutation on any matrix.

Spatula's speedups hinge on the structure the ordering induces — fill
sets memory and numeric work, the elimination-tree shape sets available
parallelism, and front sizes set simulated cycles.  This module turns
those into one comparable record, :class:`OrderingScore`, computed for
an arbitrary permutation (registry method, plugin, or hand-rolled):

* ``fill`` / ``fill_ratio`` — predicted nnz(L) and its ratio to nnz(A);
* ``flops`` — symbolic factorization FLOPs (LU counts both triangles);
* ``etree_height`` — length of the critical dependency chain;
* level widths / ``occupancy`` — how wide the etree level sets are,
  i.e. how much column-level parallelism the ordering exposes;
* optionally ``cycles`` — simulated Spatula cycles on a tiny config.

Scores are exported as ``ordering.quality.*`` gauges into the global
metrics registry (so they land in solve artifacts and are watched by
``repro report --diff``) and embedded in
:class:`~repro.symbolic.analyze.SymbolicFactorization` results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.obs.metrics import MetricsRegistry, global_registry
from repro.ordering.api import validate_permutation
from repro.sparse.csc import CSCMatrix
from repro.symbolic.etree import elimination_tree, etree_heights
from repro.symbolic.structure import (
    cholesky_flops_from_counts,
    column_counts,
    lu_flops_from_counts,
)

#: Gauge-name prefix for exported scores.
QUALITY_PREFIX = "ordering.quality"


@dataclass(frozen=True)
class OrderingScore:
    """Structural quality of one permutation on one matrix.

    Lower is better for every field except ``level_occupancy`` (fraction
    of the widest level that the average level fills; higher means a
    more uniformly parallel etree).
    """

    method: str
    n: int
    nnz: int
    fill: int
    fill_ratio: float
    flops: int
    etree_height: int
    n_levels: int
    max_level_width: int
    mean_level_width: float
    level_occupancy: float
    cycles: int | None = None
    ordering_seconds: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "OrderingScore":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def flat_metrics(self) -> dict[str, float]:
        """The exported gauge values, keyed by full metric name."""
        out = {
            f"{QUALITY_PREFIX}.fill": float(self.fill),
            f"{QUALITY_PREFIX}.fill_ratio": float(self.fill_ratio),
            f"{QUALITY_PREFIX}.flops": float(self.flops),
            f"{QUALITY_PREFIX}.etree_height": float(self.etree_height),
            f"{QUALITY_PREFIX}.levels": float(self.n_levels),
            f"{QUALITY_PREFIX}.level_width.max": float(self.max_level_width),
            f"{QUALITY_PREFIX}.level_width.mean": float(self.mean_level_width),
            f"{QUALITY_PREFIX}.occupancy": float(self.level_occupancy),
        }
        if self.cycles is not None:
            out[f"{QUALITY_PREFIX}.cycles"] = float(self.cycles)
        return out


def score_from_counts(
    method: str,
    n: int,
    nnz: int,
    parent: np.ndarray,
    counts: np.ndarray,
    kind: str = "cholesky",
    cycles: int | None = None,
    ordering_seconds: float | None = None,
) -> OrderingScore:
    """Build a score from an already-computed etree + column counts.

    This is the cheap path :func:`repro.symbolic.symbolic_factorize`
    uses — the analysis has the etree and counts anyway, so scoring a
    solve's ordering is nearly free.
    """
    heights = etree_heights(parent)
    widths = np.bincount(heights, minlength=1)
    n_levels = int(heights.max()) + 1 if n else 0
    max_width = int(widths.max()) if n else 0
    mean_width = float(n / n_levels) if n_levels else 0.0
    fill = int(np.asarray(counts).sum())
    if kind == "cholesky":
        flops = cholesky_flops_from_counts(counts)
    else:
        flops = lu_flops_from_counts(counts)
    return OrderingScore(
        method=method,
        n=int(n),
        nnz=int(nnz),
        fill=fill,
        fill_ratio=float(fill / nnz) if nnz else 0.0,
        flops=int(flops),
        etree_height=n_levels,
        n_levels=n_levels,
        max_level_width=max_width,
        mean_level_width=mean_width,
        level_occupancy=float(mean_width / max_width) if max_width else 0.0,
        cycles=cycles,
        ordering_seconds=ordering_seconds,
    )


def score_ordering(
    matrix: CSCMatrix,
    perm: np.ndarray,
    method: str = "custom",
    kind: str = "cholesky",
    simulate: bool = False,
    ordering_seconds: float | None = None,
) -> OrderingScore:
    """Score an arbitrary permutation on a matrix.

    Args:
        matrix: square sparse matrix.
        perm: permutation (new index -> old index); validated.
        method: label recorded in the score.
        kind: "cholesky" (pattern used as-is) or "lu" (A + A^T pattern),
            matching :func:`repro.symbolic.symbolic_factorize`.
        simulate: also run the cycle simulator on a tiny Spatula config
            and record ``cycles`` (orders of magnitude slower; off by
            default).
        ordering_seconds: optional wall-clock cost of computing ``perm``.
    """
    if matrix.n_rows != matrix.n_cols:
        raise ValueError("ordering quality requires a square matrix")
    n = matrix.n_rows
    perm = validate_permutation(perm, n)
    permuted = matrix.permuted(perm)
    pattern = permuted if kind == "cholesky" else permuted.pattern_symmetrized()
    if kind == "cholesky" and not pattern.is_structurally_symmetric():
        pattern = pattern.pattern_symmetrized()
    parent = elimination_tree(pattern)
    counts = column_counts(pattern, parent)
    cycles = None
    if simulate:
        cycles = _simulated_cycles(matrix, perm, kind)
    return score_from_counts(
        method, n, matrix.nnz, parent, counts, kind=kind,
        cycles=cycles, ordering_seconds=ordering_seconds,
    )


def _simulated_cycles(matrix: CSCMatrix, perm: np.ndarray, kind: str) -> int:
    from repro.arch.config import SpatulaConfig
    from repro.arch.sim import SpatulaSim
    from repro.symbolic.analyze import symbolic_factorize
    from repro.tasks.plan import build_plan

    config = SpatulaConfig.tiny()
    symbolic = symbolic_factorize(matrix, kind=kind, perm=perm)
    plan = build_plan(symbolic, tile=config.tile, supertile=config.supertile)
    return int(SpatulaSim(plan, config, matrix_name="quality").run().cycles)


def export_quality_gauges(
    score: OrderingScore, registry: MetricsRegistry | None = None
) -> None:
    """Set ``ordering.quality.*`` gauges from a score.

    Defaults to the process-global registry so the values land in any
    artifact snapshotting it (``solve --metrics``, the serve layer, CI).
    """
    reg = registry if registry is not None else global_registry()
    for name, value in score.flat_metrics().items():
        reg.gauge(name).set(value)


def compare_orderings(
    matrix: CSCMatrix,
    methods: tuple[str, ...] | None = None,
    kind: str = "cholesky",
    simulate: bool = False,
) -> dict[str, OrderingScore]:
    """Score several registered orderings on one matrix, name -> score."""
    from repro.ordering.api import fill_reducing_ordering
    from repro.ordering.registry import available_orderings

    out: dict[str, OrderingScore] = {}
    for name in methods if methods is not None else available_orderings():
        perm = fill_reducing_ordering(matrix, name)
        out[name] = score_ordering(
            matrix, perm, method=name, kind=kind, simulate=simulate)
    return out

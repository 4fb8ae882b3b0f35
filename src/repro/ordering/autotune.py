"""Per-matrix-family autotuner over ordering x block size x workers.

The numeric engine exposes three knobs that interact with the matrix
structure — the fill-reducing ordering, the dense-kernel block size,
and the worker count.  This module sweeps them, times warm
refactorization with a real :class:`~repro.numeric.solver.SparseSolver`,
and records every trial into a :class:`TrialStore` (``trials.jsonl`` in
a directory) keyed by a coarse *matrix-family fingerprint*.  The store
is the experience database: the next solve of a structurally
similar matrix (``SparseSolver(ordering="auto")``, ``solve --ordering
auto``, or a serve-layer pattern registration with a tune store) reads
the cached best config instead of re-sweeping.

The fingerprint deliberately buckets hard: matrices of the same family
(meshes of similar size, power-law graphs of similar skew) should
collide so experience transfers, while meshes and hub graphs should
not.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.obs.metrics import global_registry
from repro.sparse.csc import CSCMatrix

logger = logging.getLogger(__name__)

TRIAL_SCHEMA_VERSION = 1

#: Sweep grids per budget preset: (orderings or None for the full
#: registry, block sizes, worker counts, factorize timing repeats).
BUDGETS: dict[str, dict] = {
    "small": {
        "orderings": ("amd", "rcm"),
        "block_sizes": (32, 64),
        "workers": (1,),
        "repeats": 1,
    },
    "medium": {
        "orderings": ("amd", "nd", "rcm"),
        "block_sizes": (32, 48, 64, 96),
        "workers": (1, 2),
        "repeats": 2,
    },
    "full": {
        "orderings": None,  # every registered ordering
        "block_sizes": (16, 32, 48, 64, 96, 128),
        "workers": (1, 2, 4),
        "repeats": 3,
    },
}


def matrix_fingerprint(matrix: CSCMatrix, kind: str = "cholesky") -> str:
    """Coarse structural bucket identifying a matrix *family*.

    Combines the factorization kind, structural symmetry, log2-bucketed
    size and mean degree, degree skew (hub-ness), and a bandwidth
    bucket.  Same-family matrices (e.g. 2-D meshes of similar size)
    share a fingerprint; structurally different matrices do not.
    """
    n = matrix.n_rows
    coo = matrix.to_coo()
    off = coo.rows != coo.cols
    nnz = matrix.nnz
    mean_deg = nnz / max(1, n)
    degrees = np.bincount(coo.cols, minlength=n)
    max_deg = int(degrees.max()) if n else 0
    skew = int(round(math.log2(max(1.0, max_deg / max(1e-9, mean_deg)))))
    if off.any():
        band = float(np.abs(coo.rows[off] - coo.cols[off]).mean()) / max(1, n)
    else:
        band = 0.0
    return (
        f"v1:{kind}"
        f":s{int(matrix.is_structurally_symmetric())}"
        f":n{int(round(math.log2(max(1, n))))}"
        f":d{int(round(2 * math.log2(1.0 + mean_deg)))}"
        f":k{skew}"
        f":b{min(9, int(band * 10))}"
    )


@dataclass(frozen=True)
class TunedConfig:
    """A tuner-recommended solver configuration.

    ``block_size``/``workers`` are ``None`` when the tuner has no
    evidence (fallback), meaning "keep the caller's defaults".
    """

    ordering: str
    block_size: int | None = None
    workers: int | None = None
    source: str = "tuned"  # "tuned" | "fallback"


@dataclass(frozen=True)
class Trial:
    """One autotuner measurement, as persisted in ``trials.jsonl``."""

    fingerprint: str
    matrix: str
    kind: str
    n: int
    ordering: str
    block_size: int
    workers: int
    analyze_s: float
    factorize_s: float
    fill: int
    flops: int
    schema_version: int = TRIAL_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Trial":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in known})


class TrialStore:
    """Append-only experience database: ``<root>/trials.jsonl``, one
    JSON object per measured trial, each carrying a ``fingerprint``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def trials_path(self) -> Path:
        return self.root / "trials.jsonl"

    def add_trial(self, record: dict) -> None:
        if "fingerprint" not in record:
            raise ValueError("trial record must carry a 'fingerprint'")
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.trials_path, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    def trials(self, fingerprint: str | None = None) -> list[dict]:
        """Recorded trials in recording order, optionally for one
        fingerprint.  Corrupted lines (truncated writes, merge damage)
        are skipped with a warning: the autotuner must keep working on
        a partially damaged store."""
        if not self.trials_path.exists():
            return []
        out: list[dict] = []
        with open(self.trials_path) as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    logger.warning(
                        "skipping corrupted trial line %s:%d (%s)",
                        self.trials_path, lineno, exc)
                    continue
                if not isinstance(record, dict) or "fingerprint" not in record:
                    logger.warning(
                        "skipping malformed trial line %s:%d "
                        "(not a fingerprinted record)",
                        self.trials_path, lineno)
                    continue
                if fingerprint is None or record["fingerprint"] == fingerprint:
                    out.append(record)
        return out


@dataclass
class AutotuneResult:
    """Outcome of :func:`autotune`: the pick plus how it was obtained."""

    config: TunedConfig
    fingerprint: str
    trials: list[Trial]
    from_cache: bool


def best_config(store: TrialStore, fingerprint: str,
                kind: str | None = None) -> TunedConfig | None:
    """The lowest-``factorize_s`` trial recorded for a fingerprint."""
    best: Trial | None = None
    for payload in store.trials(fingerprint=fingerprint):
        try:
            trial = Trial.from_dict(payload)
        except TypeError:
            logger.warning("skipping malformed trial record: %r", payload)
            continue
        if kind is not None and trial.kind != kind:
            continue
        if best is None or trial.factorize_s < best.factorize_s:
            best = trial
    if best is None:
        return None
    return TunedConfig(ordering=best.ordering, block_size=best.block_size,
                       workers=best.workers, source="tuned")


def resolve_auto(
    matrix: CSCMatrix,
    kind: str = "cholesky",
    store: TrialStore | str | None = None,
) -> TunedConfig:
    """Resolve ``ordering="auto"`` against the experience store.

    Returns the cached best config for the matrix's family fingerprint,
    or an AMD fallback (``source="fallback"``) when there is no store
    or no recorded experience.
    """
    reg = global_registry()
    if store is None:
        reg.counter("ordering.autotune.fallbacks").inc()
        return TunedConfig(ordering="amd", source="fallback")
    if not isinstance(store, TrialStore):
        store = TrialStore(store)
    fingerprint = matrix_fingerprint(matrix, kind=kind)
    tuned = best_config(store, fingerprint, kind=kind)
    if tuned is None:
        reg.counter("ordering.autotune.fallbacks").inc()
        return TunedConfig(ordering="amd", source="fallback")
    reg.counter("ordering.autotune.cache_hits").inc()
    return tuned


def autotune(
    matrix: CSCMatrix,
    store: TrialStore | str,
    kind: str = "cholesky",
    budget: str = "small",
    matrix_name: str = "matrix",
    force: bool = False,
) -> AutotuneResult:
    """Sweep ordering x block size x workers and record the trials.

    A warm store (existing trials for this matrix's fingerprint) short-
    circuits the sweep unless ``force=True`` — the whole point of the
    experience database is to not re-measure known families.
    """
    from repro.numeric.solver import SparseSolver
    from repro.ordering.registry import available_orderings

    if not isinstance(store, TrialStore):
        store = TrialStore(store)
    try:
        grid = BUDGETS[budget]
    except KeyError:
        raise ValueError(
            f"unknown budget {budget!r}; choose from "
            f"{tuple(sorted(BUDGETS))}") from None
    fingerprint = matrix_fingerprint(matrix, kind=kind)
    reg = global_registry()

    if not force:
        cached = best_config(store, fingerprint, kind=kind)
        if cached is not None:
            reg.counter("ordering.autotune.cache_hits").inc()
            logger.info("autotune cache hit for %s: %s", fingerprint, cached)
            return AutotuneResult(config=cached, fingerprint=fingerprint,
                                  trials=[], from_cache=True)

    orderings = grid["orderings"] or available_orderings()
    repeats = grid["repeats"]
    trials: list[Trial] = []
    for ordering in orderings:
        for block_size in grid["block_sizes"]:
            for workers in grid["workers"]:
                t0 = time.perf_counter()
                try:
                    solver = SparseSolver(
                        matrix, kind=kind, ordering=ordering,
                        block_size=block_size, workers=workers,
                        use_cache=False,
                    )
                except (ValueError, np.linalg.LinAlgError) as exc:
                    logger.warning(
                        "autotune trial %s/b%d/w%d failed: %s",
                        ordering, block_size, workers, exc)
                    continue
                analyze_s = time.perf_counter() - t0
                # Time *warm* refactorization: the steady-state cost a
                # cached best-config actually buys in serving.
                best_s = math.inf
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    solver.factorize()
                    best_s = min(best_s, time.perf_counter() - t0)
                trial = Trial(
                    fingerprint=fingerprint, matrix=matrix_name, kind=kind,
                    n=matrix.n_rows, ordering=ordering,
                    block_size=block_size, workers=workers,
                    analyze_s=analyze_s, factorize_s=best_s,
                    fill=int(solver.symbolic.factor_nnz),
                    flops=int(solver.symbolic.flops),
                )
                store.add_trial(trial.to_dict())
                trials.append(trial)
    if not trials:
        raise ValueError(
            f"autotune produced no successful trials for {matrix_name}")
    winner = min(trials, key=lambda t: t.factorize_s)
    reg.gauge("ordering.autotune.trials").set(float(len(trials)))
    reg.gauge("ordering.autotune.best.factorize_s").set(winner.factorize_s)
    logger.info(
        "autotune %s [%s]: %d trials, best %s/b%d/w%d (%.4fs factorize)",
        matrix_name, fingerprint, len(trials), winner.ordering,
        winner.block_size, winner.workers, winner.factorize_s,
    )
    return AutotuneResult(
        config=TunedConfig(ordering=winner.ordering,
                           block_size=winner.block_size,
                           workers=winner.workers, source="tuned"),
        fingerprint=fingerprint, trials=trials, from_cache=False,
    )

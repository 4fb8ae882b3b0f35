"""Tuning knobs for the numeric engine (block sizes, worker counts).

The blocked, LAPACK/BLAS-routed dense kernels (:mod:`repro.numeric.dense`)
and the level-scheduled multifrontal factorizations
(:mod:`repro.numeric.cholesky` / :mod:`repro.numeric.lu`) read their
defaults from a process-global :class:`NumericTuning`.  Every knob can be
overridden per call (``block_size=`` / ``workers=`` arguments), set
globally (:func:`set_tuning`), or scoped with the :func:`tuned` context
manager::

    with tuned(block_size=96, workers=4):
        solver = SparseSolver(matrix)

Knobs:

* ``block_size`` — panel width of the right-looking blocked kernels: how
  many pivots one ``dpotrf``/``dtrsm`` pair (Cholesky) or one per-pivot
  diagonal-block loop plus two ``dtrsm`` (LU) factors at once, and the
  rank of each trailing matrix-matrix update.  32–128 is the useful range
  on typical BLAS builds.  ``1`` is the textbook per-pivot algorithm in
  plain NumPy, with no LAPACK call — the reference path the tests hold
  the LAPACK-routed kernels against.
* ``workers`` — thread count for level-scheduled multifrontal
  factorization.  NumPy's BLAS releases the GIL inside the dense kernels,
  so independent supernodes within an elimination-tree level run
  concurrently.  ``1`` means fully sequential.
* ``parallel_threshold`` — minimum number of supernodes in a level before
  the level is dispatched to the thread pool; tiny levels are cheaper to
  run inline than to schedule.
* ``scheduler`` — which :mod:`repro.numeric.schedule` backend runs the
  numeric phase: ``"level"`` (barrier per etree level, the baseline),
  ``"dag"`` (barrier-free dataflow dispatch), or ``"procs"``
  (subtree-parallel worker processes over shared memory).  All three are
  bit-identical; see docs/PERFORMANCE.md "Choosing a scheduler".
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

DEFAULT_BLOCK_SIZE = 48
DEFAULT_WORKERS = 1
DEFAULT_PARALLEL_THRESHOLD = 2
DEFAULT_SCHEDULER = "level"

#: Mirrors repro.numeric.schedule.SCHEDULER_NAMES (kept literal here so
#: tuning stays import-light and cycle-free).
SCHEDULERS = ("level", "dag", "procs")


@dataclass(frozen=True)
class NumericTuning:
    """Performance knobs of the numeric engine."""

    block_size: int = DEFAULT_BLOCK_SIZE
    workers: int = DEFAULT_WORKERS
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD
    scheduler: str = DEFAULT_SCHEDULER

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.parallel_threshold < 1:
            raise ValueError("parallel_threshold must be >= 1")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"scheduler must be one of {SCHEDULERS}"
            )


_tuning = NumericTuning()


def get_tuning() -> NumericTuning:
    """The process-global tuning currently in effect."""
    return _tuning


def set_tuning(tuning: NumericTuning) -> NumericTuning:
    """Replace the global tuning; returns the previous value."""
    global _tuning
    previous = _tuning
    _tuning = tuning
    return previous


@contextmanager
def tuned(**overrides):
    """Temporarily override tuning fields (``block_size=``, ``workers=``,
    ``parallel_threshold=``, ``scheduler=``) within a ``with`` block."""
    previous = set_tuning(replace(_tuning, **overrides))
    try:
        yield _tuning
    finally:
        set_tuning(previous)


def resolve_block_size(block_size: int | None) -> int:
    """Per-call override, falling back to the global tuning."""
    return _tuning.block_size if block_size is None else int(block_size)


def resolve_workers(workers: int | None) -> int:
    """Per-call override, falling back to the global tuning."""
    return _tuning.workers if workers is None else int(workers)


def resolve_scheduler(scheduler: str | None) -> str:
    """Per-call override, falling back to the global tuning."""
    if scheduler is None:
        return _tuning.scheduler
    if scheduler not in SCHEDULERS:
        raise ValueError(f"scheduler must be one of {SCHEDULERS}")
    return scheduler

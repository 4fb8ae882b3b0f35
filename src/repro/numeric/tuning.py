"""Tuning knobs for the numeric engine (block sizes, worker counts).

The blocked, LAPACK/BLAS-routed dense kernels (:mod:`repro.numeric.dense`)
and the multifrontal factorizations (:mod:`repro.numeric.cholesky` /
:mod:`repro.numeric.lu`) read their defaults from a process-global
:class:`NumericTuning`.  Every knob can be overridden per call
(``block_size=`` / ``workers=`` arguments), set globally
(:func:`set_tuning`), or scoped with the :func:`tuned` context manager::

    with tuned(block_size=96, workers=4):
        solver = SparseSolver(matrix)

Knobs:

* ``block_size`` — panel width of the right-looking blocked kernels: how
  many pivots one ``dpotrf``/``dtrsm`` pair (Cholesky) or one ``dgetrf``
  (the per-pivot loop when it would pivot or bump) plus two ``dtrsm``
  (LU) factors at once; a supernode no wider than this is one panel, and
  its update block takes one rank-``k`` update either way.  ``1`` is the
  textbook per-pivot algorithm in plain NumPy, with no LAPACK call — the
  reference path the tests hold the LAPACK-routed kernels against.
* ``workers`` — thread count of the numeric-phase scheduler
  (:mod:`repro.numeric.schedule`): a supernode is dispatched to the pool
  the moment its last assembly-tree child finishes.  NumPy's BLAS
  releases the GIL inside the dense kernels, so independent supernodes
  overlap there.  ``1`` means fully sequential.  The factor is
  bit-identical for every value; whether ``workers > 1`` is faster is
  host-dependent (docs/PERFORMANCE.md "Parallel factorization").
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

DEFAULT_BLOCK_SIZE = 48
DEFAULT_WORKERS = 1


def _check_at_least_one(name: str, value: int) -> int:
    """The one range check behind the dataclass and the per-call path."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


@dataclass(frozen=True)
class NumericTuning:
    """Performance knobs of the numeric engine."""

    block_size: int = DEFAULT_BLOCK_SIZE
    workers: int = DEFAULT_WORKERS

    def __post_init__(self) -> None:
        _check_at_least_one("block_size", self.block_size)
        _check_at_least_one("workers", self.workers)


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
    """Temporarily override tuning fields (``block_size=``, ``workers=``)
    within a ``with`` block."""
    previous = set_tuning(replace(_tuning, **overrides))
    try:
        yield _tuning
    finally:
        set_tuning(previous)


def resolve_block_size(block_size: int | None) -> int:
    """Per-call override (validated), falling back to the global tuning."""
    if block_size is None:
        return _tuning.block_size
    return _check_at_least_one("block_size", int(block_size))


def resolve_workers(workers: int | None) -> int:
    """Per-call override (validated), falling back to the global tuning."""
    if workers is None:
        return _tuning.workers
    return _check_at_least_one("workers", int(workers))

"""Defaults and range checks of the numeric engine's per-call knobs.

The blocked, LAPACK/BLAS-routed dense kernels (:mod:`repro.numeric.dense`)
and the multifrontal factorizations (:mod:`repro.numeric.cholesky` /
:mod:`repro.numeric.lu`) take ``block_size=`` / ``workers=`` per call;
``None`` means the default below.

Knobs:

* ``block_size`` — panel width of the right-looking blocked kernels: how
  many pivots one ``dpotrf``/``dtrsm`` pair (Cholesky) or one ``dgetrf``
  (the per-pivot loop when it would pivot or bump) plus two ``dtrsm``
  (LU) factors at once; a supernode no wider than this is one panel, and
  its update block takes one rank-``k`` update either way.  Every block
  size runs in the compiled core (``repro/numeric/_core.c``).  ``1`` is
  the textbook per-pivot algorithm there (square root or bump, column
  scale, rank-1 update), factoring the pivot columns with no LAPACK
  call — the reference path the tests hold the LAPACK-routed kernels
  against.
* ``workers`` — thread count of the numeric-phase scheduler
  (:mod:`repro.numeric.schedule`): a task (a subtree of small
  supernodes, or one larger supernode) is dispatched to the pool the
  moment its last child task finishes.  The compiled core releases the
  GIL for every task, so independent tasks overlap.  ``1`` means fully sequential.  The factor is
  bit-identical for every value; whether ``workers > 1`` is faster is
  host-dependent (docs/PERFORMANCE.md "Parallel factorization").
"""

from __future__ import annotations

DEFAULT_BLOCK_SIZE = 48
DEFAULT_WORKERS = 1


def _check_at_least_one(name: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"{name} must be >= 1")
    return value


def resolve_block_size(block_size: int | None) -> int:
    """Per-call override (validated), falling back to the default."""
    if block_size is None:
        return DEFAULT_BLOCK_SIZE
    return _check_at_least_one("block_size", int(block_size))


def resolve_workers(workers: int | None) -> int:
    """Per-call override (validated), falling back to the default."""
    if workers is None:
        return DEFAULT_WORKERS
    return _check_at_least_one("workers", int(workers))

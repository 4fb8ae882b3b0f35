"""Seeded inputs of the ladder and the checks on its outputs.

Everything the program under test sees — matrices, right-hand sides,
value perturbations, the arrival schedule — is generated here from
``--seed``; the same seed gives the same inputs.  The matrices are the
suite's Serena / FullChip / bmwcra_1 / rajat31 stand-ins at sizes where
one cold solve costs about two seconds on one core.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import circuit_like, grid_laplacian_3d

#: name -> (kind, ordering, generator taking the seed).  ``ordering``
#: matters only to the sim rung; the solver rungs and the server use the
#: library default ("amd").
MATRICES = {
    # cold/warm rungs
    "spd3d": ("cholesky", "amd",
              lambda s: grid_laplacian_3d(20, 20, 20, seed=s)),
    "circuit_lu": ("lu", "amd",
                   lambda s: circuit_like(12000, hub_fraction=0.02,
                                          aspect=12, seed=s)),
    # serve tenants
    "tenant_spd": ("cholesky", "amd",
                   lambda s: grid_laplacian_3d(12, 12, 12, seed=s)),
    "tenant_lu": ("lu", "amd",
                  lambda s: circuit_like(2000, hub_fraction=0.05,
                                         aspect=16, seed=s)),
    # sim rung, and the reduced instance of each family that set-up runs
    # with check_numerics=True (the full size costs 6-16 s and 1.4 GiB)
    "sim_spd3d": ("cholesky", "nd",
                  lambda s: grid_laplacian_3d(16, 16, 16, seed=s)),
    "sim_circuit_lu": ("lu", "amd",
                       lambda s: circuit_like(6000, hub_fraction=0.02,
                                              aspect=12, seed=s)),
    "check_spd3d": ("cholesky", "nd",
                    lambda s: grid_laplacian_3d(8, 8, 8, seed=s)),
    "check_circuit_lu": ("lu", "amd",
                         lambda s: circuit_like(1000, hub_fraction=0.02,
                                                aspect=12, seed=s)),
    # finishes lazy imports before the first timed cold solve
    "warmup_spd3d": ("cholesky", "amd",
                     lambda s: grid_laplacian_3d(6, 6, 6, seed=s)),
    "warmup_circuit_lu": ("lu", "amd",
                          lambda s: circuit_like(600, hub_fraction=0.02,
                                                 aspect=12, seed=s)),
}

#: Relative-residual gates.
RESIDUAL_TOL = {"cholesky": 1e-10, "lu": 1e-8}


def rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream...) so inputs do not
    depend on the order rungs draw them in."""
    return np.random.default_rng([seed, *stream])


def matrix(name: str, seed: int) -> tuple[CSCMatrix, str, str]:
    kind, ordering, gen = MATRICES[name]
    return gen(seed), kind, ordering


def perturbed(a: CSCMatrix, kind: str, gen: np.random.Generator
              ) -> CSCMatrix:
    """New values on ``a``'s pattern: ``c*A + diag(d)`` with c in
    [0.99, 1.01] and d >= 0 for Cholesky (stays SPD), ``A*(1+0.01u)``
    with u in [-1, 1) entrywise for LU."""
    if kind == "cholesky":
        data = a.data * gen.uniform(0.99, 1.01)
        cols = np.repeat(np.arange(a.n_cols), np.diff(a.indptr))
        diag = np.flatnonzero(a.indices == cols)
        data[diag] += 0.01 * np.abs(a.data[diag]) * gen.random(len(diag))
    else:
        data = a.data * (1.0 + 0.01 * gen.uniform(-1.0, 1.0, a.nnz))
    return CSCMatrix(a.n_rows, a.n_cols, a.indptr, a.indices, data)


def poisson_due_times(rate: float, count: int,
                      gen: np.random.Generator) -> list[float]:
    """Seconds from phase start at which each request is due."""
    return np.cumsum(gen.exponential(1.0 / rate, count)).tolist()


def residual(a: CSCMatrix, x: np.ndarray, b: np.ndarray) -> float:
    """max over columns of ||A x - b|| / ||b|| (scipy does the product:
    the check must not cost more than the solve it checks)."""
    sp = scipy.sparse.csc_matrix((a.data, a.indices, a.indptr),
                                 shape=(a.n_rows, a.n_cols))
    r = sp @ x - b
    norms = np.linalg.norm(b, axis=0)
    return float(np.max(np.linalg.norm(r, axis=0)
                        / np.where(norms > 0, norms, 1.0)))


class Gate:
    """Counts operations attempted and failed; keeps the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.residual_max = 0.0

    def check(self, ok: bool, reason: str) -> bool:
        """One attempted operation; ``reason`` is kept if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return ok

    def check_residual(self, a: CSCMatrix, kind: str, x: np.ndarray,
                       b: np.ndarray, what: str) -> None:
        res = residual(a, x, b)
        self.residual_max = max(self.residual_max, res)
        self.check(res <= RESIDUAL_TOL[kind],
                   f"{what}: residual {res:.3g} > {RESIDUAL_TOL[kind]:g}")

"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.arch.config import SpatulaConfig
from repro.obs import telemetry
from repro.obs.metrics import reset_global_registry
from repro.obs.spans import disable_tracing, get_tracer
from repro.sparse import (
    circuit_like,
    grid_laplacian_2d,
    grid_laplacian_3d,
    power_law_spd,
    random_spd,
    random_unsymmetric,
)


@pytest.fixture(autouse=True)
def _isolate_observability_state():
    """Reset every process-global observability singleton around each
    test: the metrics registry, the span tracer (disabled + empty), and
    any open telemetry sink.  Tests that need counters or tracing enable
    them locally; none may depend on state leaked by an earlier test.
    """
    reset_global_registry()
    disable_tracing()
    get_tracer().reset()
    telemetry.stop(dump_registry=False)
    yield
    telemetry.stop(dump_registry=False)
    disable_tracing()
    get_tracer().reset()
    reset_global_registry()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def spd_small():
    """A small SPD matrix with interesting structure (2-D grid)."""
    return grid_laplacian_2d(7, seed=3)


@pytest.fixture
def spd_medium():
    """A medium SPD matrix (3-D grid, real fill-in)."""
    return grid_laplacian_3d(5, seed=4)


@pytest.fixture
def spd_irregular():
    """An irregular SPD matrix (power-law circuit graph)."""
    return power_law_spd(150, seed=5)


@pytest.fixture
def spd_dense_ish():
    """A dense-ish random SPD matrix (big supernodes after fill)."""
    return random_spd(60, density=0.1, seed=6)


@pytest.fixture
def unsym_small():
    """A small unsymmetric matrix (circuit-like)."""
    return circuit_like(100, seed=7)


@pytest.fixture
def unsym_random():
    return random_unsymmetric(80, density=0.08, seed=8)


@pytest.fixture
def tiny_config():
    return SpatulaConfig.tiny()


@pytest.fixture
def small_config():
    return SpatulaConfig.small()


def csc_solve(solver, b):
    """Solve ``solver``'s system with the CSC substitution oracle: the
    sweeps of :mod:`repro.numeric.triangular` over
    ``solver.factor_csc()`` (the Cholesky backward solve is the upper
    sweep over ``L.transpose()``), with the solver's gather and scatter
    around them — the independent check of the supernodal solve."""
    from repro.numeric.triangular import solve_lower_csc, solve_upper_csc

    lower, upper = solver.factor_csc()
    pb = np.asarray(b, dtype=np.float64)[solver._gather]
    if upper is None:
        y = solve_upper_csc(lower.transpose(), solve_lower_csc(lower, pb))
    else:
        y = solve_upper_csc(upper, solve_lower_csc(lower, pb,
                                                   unit_diagonal=True))
    x = np.empty_like(y)
    x[solver.symbolic.perm] = y
    return x

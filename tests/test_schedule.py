"""Tests for the numeric-phase scheduler (:mod:`repro.numeric.schedule`).

Covers etree level-set edge cases (empty forest, chains, stars,
multi-root forests), factor bit-identity across the verify fuzz-suite
generator families at several worker counts, dependence ordering,
prompt exception propagation without a hang, the per-call knob range
checks, the per-factor attribution view, and the ``numeric.sched.*``
metrics surface.
"""

import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.numeric import SparseSolver, multifrontal_cholesky
from repro.numeric.engine import numeric_context
from repro.numeric.schedule import run_scheduled
from repro.obs.metrics import global_registry
from repro.sparse.generators import grid_laplacian_3d
from repro.symbolic.analyze import symbolic_factorize
from repro.symbolic.etree import etree_level_sets
from repro.verify.generators import build_case, family_names


def _children_of(sn_parent):
    children = [[] for _ in range(len(sn_parent))]
    for i, p in enumerate(sn_parent):
        if int(p) >= 0:
            children[int(p)].append(i)
    return children


# -- etree level-set edge cases ------------------------------------------------


def test_level_sets_empty():
    assert etree_level_sets(np.empty(0, dtype=np.int64)) == []


def test_level_sets_single_chain():
    n = 9
    parent = np.arange(1, n + 1, dtype=np.int64)
    parent[-1] = -1
    levels = etree_level_sets(parent)
    assert len(levels) == n
    assert all(len(level) == 1 for level in levels)
    assert [int(level[0]) for level in levels] == list(range(n))


def test_level_sets_star():
    n = 12
    parent = np.full(n, n - 1, dtype=np.int64)
    parent[-1] = -1
    levels = etree_level_sets(parent)
    assert len(levels) == 2
    assert list(levels[0]) == list(range(n - 1))
    assert list(levels[1]) == [n - 1]


def test_level_sets_multi_root_forest():
    # Two stars: {0,1}->2 and {3,4}->5.
    parent = np.array([2, 2, -1, 5, 5, -1], dtype=np.int64)
    levels = etree_level_sets(parent)
    assert len(levels) == 2
    assert list(levels[0]) == [0, 1, 3, 4]
    assert list(levels[1]) == [2, 5]


# -- bit-identity across worker counts -----------------------------------------


def _factor_bits(matrix, kind, workers):
    solver = SparseSolver(matrix, kind=kind, workers=workers)
    lower, upper = solver.factor_csc()
    parts = [lower.indptr, lower.indices, lower.data]
    if upper is not None:
        parts += [upper.indptr, upper.indices, upper.data]
    perturbed = solver.factor.perturbed_pivots if kind == "lu" else None
    return parts, perturbed


def _assert_same_bits(ref, got, label):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert np.array_equal(a, b), f"factor differs for {label}"


@pytest.mark.parametrize("family", [
    f for f in family_names()
    if not f.startswith("struct_singular") and f != "lu_nonfinite"
])
def test_bit_identity_fuzz_families(family):
    """workers 1/2/4 produce bitwise-equal factors (and, for LU, the
    same perturbed-pivot count) on every non-singular fuzz-suite
    generator family."""
    for seed in (3, 11):
        case = build_case(family, seed, max_n=36)
        assert case.expect == "ok"
        ref, ref_perturbed = _factor_bits(case.matrix, case.kind, workers=1)
        for workers in (1, 2, 4):
            got, perturbed = _factor_bits(case.matrix, case.kind, workers)
            _assert_same_bits(ref, got, f"{family}@{seed} w{workers}")
            assert perturbed == ref_perturbed


# -- per-call knob range checks ------------------------------------------------


@pytest.mark.parametrize("knob, value", [
    ("block_size", 0), ("block_size", -3), ("workers", 0),
])
def test_per_call_knobs_are_range_checked(knob, value):
    """A per-call knob is held to the range ``repro.numeric.tuning``
    enforces (``block_size=-3`` used to return a wrong answer, ``0``
    died inside the kernel)."""
    matrix = grid_laplacian_3d(4, 4, 4, seed=1)
    with pytest.raises(ValueError, match=f"{knob} must be >= 1"):
        SparseSolver(matrix, **{knob: value})
    symbolic = symbolic_factorize(matrix)
    with pytest.raises(ValueError, match=f"{knob} must be >= 1"):
        multifrontal_cholesky(matrix, symbolic, **{knob: value})


def test_cli_rejects_zero_block_size(capsys):
    assert main(["solve", "fuzz:spd_mesh@1", "--block-size", "0"]) == 1
    assert "error: block_size must be >= 1" in capsys.readouterr().err


# -- the scheduler on synthetic trees ------------------------------------------


class _FakeSupernode:
    def __init__(self, children):
        self.children = children


class _FakeJob:
    """Minimal SupernodeJob stand-in recording completion order."""

    def __init__(self, sn_parent, fail_at=None, sleep_s=0.0):
        self.sn_parent = np.asarray(sn_parent, dtype=np.int64)
        self.n_supernodes = len(self.sn_parent)
        self.supernodes = [
            _FakeSupernode(children)
            for children in _children_of(self.sn_parent)
        ]
        self.fail_at = fail_at
        self.sleep_s = sleep_s
        self.order = []
        self._lock = threading.Lock()

    def compute(self, i):
        if i == self.fail_at:
            raise RuntimeError(f"task {i} failed")
        if self.sleep_s:
            time.sleep(self.sleep_s)
        with self._lock:
            self.order.append(int(i))


def _random_tree(n, seed):
    rng = np.random.default_rng(seed)
    parent = np.full(n, -1, dtype=np.int64)
    for i in range(n - 1):
        parent[i] = int(rng.integers(i + 1, n))
    return parent


def test_dag_respects_dependencies():
    parent = _random_tree(60, seed=42)
    job = _FakeJob(parent, sleep_s=0.001)
    stats = run_scheduled(job, workers=4)
    assert sorted(job.order) == list(range(60))
    position = {node: k for k, node in enumerate(job.order)}
    for i in range(60):
        p = int(parent[i])
        if p >= 0:
            assert position[i] < position[p], \
                f"node {i} must finish before its parent {p}"
    assert stats.dispatched == 60
    assert sum(stats.worker_tasks) == 60
    assert len(stats.ready_depth) == 60


def test_dag_inline_path_is_ascending():
    job = _FakeJob(_random_tree(20, seed=7))
    stats = run_scheduled(job, workers=1)
    assert job.order == list(range(20))
    assert stats.inline_tasks == 20
    assert stats.dispatched == 0


def test_dag_error_propagates_without_hanging():
    parent = _random_tree(40, seed=3)
    job = _FakeJob(parent, fail_at=5, sleep_s=0.001)
    with pytest.raises(RuntimeError, match="task 5 failed"):
        run_scheduled(job, workers=4)


def test_failure_propagates_promptly():
    """A failing task must surface without waiting out the queue.  A
    25-leaf star whose 24 sleeping leaves take 0.3 s each needs >= 1.8 s
    to drain on 4 workers; after leaf 0 raises, only the leaves already
    running finish, the queued ones drain without computing, and the
    root never runs."""
    n = 26
    parent = np.full(n, n - 1, dtype=np.int64)
    parent[-1] = -1

    class _SleepyStar(_FakeJob):
        def compute(self, i):
            if i == 0:
                raise RuntimeError("boom")
            time.sleep(0.3)
            super().compute(i)

    job = _SleepyStar(parent)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="boom"):
        run_scheduled(job, workers=4)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.2, f"failure took {elapsed:.2f}s to surface"
    assert n - 1 not in job.order
    assert len(job.order) <= 4


# -- per-factor attribution ----------------------------------------------------


def test_factor_attribution_names_its_scheduler(spd_medium, unsym_small):
    """The attribution view rides on the factor it describes, for both
    factorization kinds."""
    for matrix, kind in ((spd_medium, "cholesky"), (unsym_small, "lu")):
        solver = SparseSolver(matrix, kind=kind, workers=2)
        sched = solver.factor.attribution["schedule"]
        assert sched["workers"] == 2
        assert sched["dispatched"] + sched["inline_tasks"] == \
            numeric_context(solver.symbolic, solver._matrix).n_tasks
        assert set(sched) == {
            "workers", "wall_s", "dispatched", "inline_tasks",
            "worker_busy_s", "worker_idle_s", "worker_tasks", "idle_s",
            "task_imbalance", "ready_depth", "dispatch_latency_ms",
        }


def test_main_role_attribution_has_schedule_evidence(spd_medium):
    symbolic = symbolic_factorize(spd_medium)
    factor = multifrontal_cholesky(spd_medium, symbolic, workers=2)
    sched = factor.attribution["schedule"]
    assert sched["workers"] == 2
    assert sched["dispatched"] > 0
    assert sched["ready_depth"]["max"] >= 1
    assert len(sched["ready_depth"]["series"]) == sched["dispatched"]
    assert sched["dispatch_latency_ms"]["mean"] >= 0.0
    assert len(sched["worker_busy_s"]) == len(sched["worker_idle_s"])


# -- scheduler metrics surface -------------------------------------------------


def test_sched_metrics_exported(spd_medium):
    symbolic = symbolic_factorize(spd_medium)
    multifrontal_cholesky(spd_medium, symbolic, workers=2)
    snap = global_registry().snapshot()
    assert snap["numeric.sched.tasks"] == numeric_context(
        symbolic, spd_medium).n_tasks
    for name in (
        "numeric.sched.ready_depth.mean",
        "numeric.sched.ready_depth.max",
        "numeric.sched.dispatch_latency_ms.mean",
        "numeric.sched.dispatch_latency_ms.max",
        "numeric.sched.idle_s",
        "numeric.sched.worker_tasks.imbalance",
    ):
        assert name in snap


def test_sched_metrics_watched():
    from repro.obs.artifact import WATCHED_METRICS

    for name, direction in [
        ("numeric.sched.idle_s", "lower"),
        ("numeric.sched.dispatch_latency_ms.mean", "lower"),
        ("numeric.sched.ready_depth.mean", "higher"),
        ("numeric.sched.worker_tasks.imbalance", "lower"),
    ]:
        assert WATCHED_METRICS[name] == direction

"""Tests for the numeric-phase schedulers (:mod:`repro.numeric.schedule`).

Covers the subtree partitioner and level-set edge cases (empty forest,
chains, stars, multi-root forests), scheduler bit-identity across the
verify fuzz-suite generator families at several worker counts, prompt
exception propagation (the ``as_completed`` regression fix), DAG
dependence ordering and error handling, the per-factor attribution view,
and the ``numeric.sched.*`` metrics surface.
"""

import threading
import time

import numpy as np
import pytest

from repro.numeric import SparseSolver, multifrontal_cholesky
from repro.numeric.schedule import (
    SCHEDULER_NAMES,
    partition_subtrees,
    run_dag,
    run_level_scheduled,
    run_scheduled,
    subtree_work,
)
from repro.numeric.tuning import NumericTuning, resolve_scheduler
from repro.obs.metrics import global_registry
from repro.symbolic.analyze import symbolic_factorize
from repro.symbolic.etree import etree_level_sets
from repro.verify.generators import build_case, family_names


# -- partition invariants ------------------------------------------------------


def _children_of(sn_parent):
    children = [[] for _ in range(len(sn_parent))]
    for i, p in enumerate(sn_parent):
        if int(p) >= 0:
            children[int(p)].append(i)
    return children


def _check_partition(sn_parent, subtrees, top):
    """The structural contract of partition_subtrees.

    Disjoint exact cover; every subtree is descendant-closed (a node's
    children stay in its subtree); the top set is upward-closed (a top
    node's parent is top or a forest root's absence); each subtree root's
    parent lies in the top set or is a forest root.
    """
    n = len(sn_parent)
    seen = np.zeros(n, dtype=int)
    for part in subtrees:
        seen[part] += 1
    seen[top] += 1
    assert np.all(seen == 1), "nodes must be covered exactly once"

    top_set = set(int(i) for i in top)
    children = _children_of(sn_parent)
    for part in subtrees:
        part_set = set(int(i) for i in part)
        root = max(part_set)
        for i in part_set:
            if i != root:
                assert int(sn_parent[i]) in part_set
            for c in children[i]:
                assert c in part_set, "subtrees must be descendant-closed"
        parent = int(sn_parent[root])
        assert parent == -1 or parent in top_set
    for i in top_set:
        p = int(sn_parent[i])
        assert p == -1 or p in top_set, "top must be upward-closed"


def test_partition_empty_forest():
    subtrees, top = partition_subtrees(
        np.empty(0, dtype=np.int64), np.empty(0), 4)
    assert subtrees == []
    assert top.size == 0


def test_partition_single_chain():
    n = 40
    parent = np.arange(1, n + 1, dtype=np.int64)
    parent[-1] = -1
    subtrees, top = partition_subtrees(parent, np.ones(n), 4)
    _check_partition(parent, subtrees, top)
    # A chain has no subtree parallelism: exactly one subtree (a
    # prefix), the rest sequential top.
    assert len(subtrees) == 1
    assert top.size > 0


def test_partition_star():
    n = 33
    parent = np.full(n, n - 1, dtype=np.int64)
    parent[-1] = -1
    subtrees, top = partition_subtrees(parent, np.ones(n), 4)
    _check_partition(parent, subtrees, top)
    # The hub must be split: it lands in the top set, leaves become
    # independent single-node subtrees.
    assert list(top) == [n - 1]
    assert len(subtrees) >= 2
    assert all(part.size == 1 for part in subtrees)


def test_partition_multi_root_forest():
    # Two disjoint binary-ish trees plus an isolated root.
    parent = np.array([2, 2, 4, 4, -1, 7, 7, 9, 9, -1, -1],
                      dtype=np.int64)
    subtrees, top = partition_subtrees(parent, np.ones(len(parent)), 3)
    _check_partition(parent, subtrees, top)
    covered = sorted(
        int(i) for part in subtrees for i in part) + sorted(
        int(i) for i in top)
    assert sorted(covered) == list(range(len(parent)))


def test_partition_all_zero_work():
    parent = np.array([2, 2, -1], dtype=np.int64)
    subtrees, top = partition_subtrees(parent, np.zeros(3), 2)
    _check_partition(parent, subtrees, top)


def test_subtree_work_accumulates_into_ancestors():
    #   0   1
    #    \ /
    #     2     3
    #      \   /
    #        4
    parent = np.array([2, 2, 4, 4, -1], dtype=np.int64)
    work = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    total = subtree_work(parent, work)
    assert total.tolist() == [1.0, 2.0, 7.0, 8.0, 31.0]


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


# -- bit-identity across schedulers and worker counts --------------------------


def _factor_bits(matrix, kind, scheduler, workers):
    solver = SparseSolver(matrix, kind=kind, workers=workers,
                          scheduler=scheduler)
    lower, upper = solver.factor_csc()
    parts = [lower.indptr, lower.indices, lower.data]
    if upper is not None:
        parts += [upper.indptr, upper.indices, upper.data]
    return parts


def _assert_same_bits(ref, got, label):
    assert len(ref) == len(got)
    for a, b in zip(ref, got):
        assert np.array_equal(a, b), f"factor differs for {label}"


@pytest.mark.parametrize("family", [
    f for f in family_names() if not f.startswith("struct_singular")
])
def test_bit_identity_fuzz_families(family):
    """level/dag at workers 1/2/4 produce bitwise-equal factors on every
    non-singular fuzz-suite generator family."""
    for seed in (3, 11):
        case = build_case(family, seed, max_n=36)
        assert case.expect == "ok"
        ref = _factor_bits(case.matrix, case.kind, "level", workers=1)
        for scheduler in ("level", "dag"):
            for workers in (1, 2, 4):
                got = _factor_bits(case.matrix, case.kind, scheduler,
                                   workers)
                _assert_same_bits(
                    ref, got,
                    f"{family}@{seed} {scheduler}/w{workers}")


def test_bit_identity_procs_cholesky(spd_medium):
    """The shared-memory process backend matches the serial factor
    bitwise (and actually takes the multi-subtree fork path)."""
    ref = _factor_bits(spd_medium, "cholesky", "level", workers=1)
    for workers in (2, 4):
        got = _factor_bits(spd_medium, "cholesky", "procs", workers)
        _assert_same_bits(ref, got, f"procs/w{workers}")


def test_bit_identity_procs_lu(unsym_small):
    ref = _factor_bits(unsym_small, "lu", "level", workers=1)
    for workers in (2, 4):
        got = _factor_bits(unsym_small, "lu", "procs", workers)
        _assert_same_bits(ref, got, f"lu procs/w{workers}")


def test_run_scheduled_rejects_unknown_scheduler(spd_small):
    symbolic = symbolic_factorize(spd_small)
    with pytest.raises(ValueError, match="scheduler"):
        multifrontal_cholesky(spd_small, symbolic, workers=2,
                              scheduler="bogus")


def test_tuning_scheduler_validation():
    with pytest.raises(ValueError):
        NumericTuning(scheduler="bogus")
    with pytest.raises(ValueError):
        resolve_scheduler("bogus")
    for name in SCHEDULER_NAMES:
        assert resolve_scheduler(name) == name


# -- exception latency (the as_completed regression fix) -----------------------


def test_level_scheduled_failure_propagates_promptly():
    """A failing task must raise as soon as it completes, not after the
    whole level drains.  24 sleeping tasks at 0.3 s over 4 workers take
    >= 1.8 s to drain fully; the prompt path cancels the queue and only
    waits out the handful already running."""
    n = 25
    levels = [np.arange(n)]

    def task(i):
        if i == 0:
            raise RuntimeError("boom")
        time.sleep(0.3)

    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="boom"):
        run_level_scheduled(levels, n, task, workers=4, trace=False)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.2, f"failure took {elapsed:.2f}s to surface"


# -- DAG scheduler on synthetic trees ------------------------------------------


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
    stats = run_dag(job, workers=4)
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
    stats = run_dag(job, workers=1)
    assert job.order == list(range(20))
    assert stats.inline_tasks == 20
    assert stats.dispatched == 0


def test_dag_node_subset():
    #  0 -> 2 <- 1,   3 -> 4;  run only the upper part {2, 4} after
    #  pretending the leaves already completed elsewhere.
    parent = np.array([2, 2, -1, 4, -1], dtype=np.int64)
    job = _FakeJob(parent)
    stats = run_dag(job, workers=2, nodes=[2, 4])
    assert sorted(job.order) == [2, 4]
    assert stats.dispatched == 2


def test_dag_error_propagates_without_hanging():
    parent = _random_tree(40, seed=3)
    job = _FakeJob(parent, fail_at=5, sleep_s=0.001)
    with pytest.raises(RuntimeError, match="task 5 failed"):
        run_dag(job, workers=4)


def test_run_scheduled_unknown_name():
    job = _FakeJob(_random_tree(5, seed=1))
    with pytest.raises(ValueError):
        run_scheduled(job, "nope", workers=2)


# -- per-factor attribution ----------------------------------------------------


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_factor_attribution_names_its_scheduler(
        scheduler, spd_medium, unsym_small):
    """The attribution view rides on the factor it describes, for both
    factorization kinds and every scheduler."""
    for matrix, kind in ((spd_medium, "cholesky"), (unsym_small, "lu")):
        solver = SparseSolver(matrix, kind=kind, workers=2,
                              scheduler=scheduler)
        sched = solver.factor.attribution["schedule"]
        assert sched["scheduler"] == scheduler
        assert sched["workers"] == 2
        if scheduler == "procs" and matrix is spd_medium:
            # The 3-D grid is wide enough that this must be the real
            # fork path, not the DAG fallback.
            assert sched["n_subtrees"] >= 2
            assert sched["top_tasks"] >= 1


def test_main_role_attribution_has_schedule_evidence(spd_medium):
    symbolic = symbolic_factorize(spd_medium)
    factor = multifrontal_cholesky(spd_medium, symbolic, workers=2,
                                   scheduler="dag")
    sched = factor.attribution["schedule"]
    assert sched["scheduler"] == "dag"
    assert sched["workers"] == 2
    assert sched["dispatched"] > 0
    assert sched["ready_depth"]["max"] >= 1
    assert len(sched["ready_depth"]["series"]) == sched["dispatched"]
    assert sched["dispatch_latency_ms"]["mean"] >= 0.0
    assert len(sched["worker_busy_s"]) == len(sched["worker_idle_s"])


# -- scheduler metrics surface -------------------------------------------------


def test_sched_metrics_exported(spd_medium):
    symbolic = symbolic_factorize(spd_medium)
    multifrontal_cholesky(spd_medium, symbolic, workers=2,
                          scheduler="dag")
    snap = global_registry().snapshot()
    assert snap["numeric.sched.backend"] == SCHEDULER_NAMES.index("dag")
    assert snap["numeric.sched.tasks.dag"] == symbolic.tree.n_supernodes
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

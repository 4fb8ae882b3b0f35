"""The compiled symbolic walks and static pivoting against the frozen
Python ones.

``elimination_tree``, ``postorder``, ``etree_heights``, ``column_counts``,
``amalgamate`` (with ``merge_contiguous``), ``supernodes_from_counts``,
``static_pivoting`` and ``pattern_graph`` run in the compiled core; each
must be the algorithm its frozen copy in ``golden_oracles`` is, tie rules
included, so every array is equal to the oracle's — and with it every
supernode partition, factor count and simulated cycle downstream.
"""

import threading

import numpy as np
import pytest

from repro.numeric import compiled
from repro.ordering import fill_reducing_ordering
from repro.ordering.graph import pattern_graph
from repro.ordering.pivoting import apply_static_pivoting, static_pivoting
from repro.sparse import CSCMatrix, circuit_like, grid_laplacian_3d
from repro.symbolic.etree import (
    elimination_tree,
    etree_heights,
    postorder,
)
from repro.symbolic.structure import column_counts
from repro.symbolic.supernodes import (
    amalgamate,
    merge_contiguous,
    supernodes_from_counts,
)
from repro.verify.generators import build_case, family_names

from . import golden_oracles as golden

#: The ladder's analysed matrices (benchmarks/ladder/inputs.py): the four
#: solver matrices and the simulated circuit.
LADDER = {
    "spd3d": ("cholesky", lambda s: grid_laplacian_3d(20, 20, 20, seed=s)),
    "circuit_lu": ("lu", lambda s: circuit_like(
        12000, hub_fraction=0.02, aspect=12, seed=s)),
    "tenant_spd": ("cholesky",
                   lambda s: grid_laplacian_3d(12, 12, 12, seed=s)),
    "tenant_lu": ("lu", lambda s: circuit_like(
        2000, hub_fraction=0.05, aspect=16, seed=s)),
    "sim_circuit_lu": ("lu", lambda s: circuit_like(
        6000, hub_fraction=0.02, aspect=12, seed=s)),
}

#: relax_small, relax_ratio, force_small: the default, amalgamation off,
#: the simulator's tile-sized force_small, a loose ratio, float knobs.
RELAX = (
    dict(relax_small=8, relax_ratio=0.3, force_small=0),
    dict(relax_small=0, relax_ratio=0.0, force_small=0),
    dict(relax_small=8, relax_ratio=0.3, force_small=16),
    dict(relax_small=32, relax_ratio=0.6, force_small=16),
    dict(relax_small=4.5, relax_ratio=1, force_small=64.5),
)


def assert_equal(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.dtype == np.int64
    np.testing.assert_array_equal(ours, theirs)


def pivot_outcome(pivot, matrix):
    """The row permutation, or the error text of a singular matrix."""
    try:
        return pivot(matrix)
    except ValueError as err:
        return str(err)


def assert_same_pivoting(matrix):
    ours = pivot_outcome(static_pivoting, matrix)
    theirs = pivot_outcome(golden.static_pivoting_stack, matrix)
    assert type(ours) is type(theirs)
    if isinstance(ours, str):
        assert ours == theirs
    else:
        assert_equal(ours, theirs)


def assert_same_graph(matrix):
    for ours, theirs in zip(pattern_graph(matrix),
                            golden.pattern_graph_compress(matrix)):
        assert_equal(ours, theirs)


def assert_same_walks(pattern, relax=RELAX):
    """Every walk of the analysis on a square symmetric ``pattern``, as
    ``symbolic_factorize`` chains them: the etree, its postorder and
    counts, then the postordered tree's counts, partition and rows."""
    parent = elimination_tree(pattern)
    assert_equal(parent, golden.elimination_tree(pattern))
    post = postorder(parent)
    assert_equal(post, golden.postorder(parent))
    assert_equal(column_counts(pattern, parent),
                 golden.column_counts(pattern, parent))
    rank = np.argsort(post)
    up = parent[post]
    parent = np.where(up >= 0, rank[up], up)
    pattern = pattern.permuted(post)
    identity = range(len(parent))
    counts = column_counts(pattern, parent, post=identity)
    assert_equal(counts, golden.column_counts(pattern, parent, post=identity))
    assert_equal(etree_heights(parent), golden.etree_heights(parent))
    for knobs in relax:
        for ours, theirs in zip(amalgamate(parent, counts, **knobs),
                                golden.amalgamate(parent, counts, **knobs)):
            assert_equal(ours, theirs)
        ours = supernodes_from_counts(pattern, parent, counts, **knobs)
        theirs = golden.supernodes_from_counts(pattern, parent, counts,
                                               **knobs)
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert (a.index, a.first_col, a.last_col, a.parent, a.children) \
                == (b.index, b.first_col, b.last_col, b.parent, b.children)
            assert_equal(a.rows, b.rows)


def assert_same_analysis(matrix, kind, relax=RELAX):
    """Static pivoting (LU), the graph, and the walks in the natural and
    the AMD order."""
    if kind == "lu":
        assert_same_pivoting(matrix)
        try:
            matrix, _ = apply_static_pivoting(matrix)
        except ValueError:
            pass  # structurally singular: analyse it unpivoted
    assert_same_graph(matrix)
    base = matrix if kind == "cholesky" else matrix.pattern_symmetrized()
    assert_same_walks(base, relax)
    assert_same_walks(base.permuted(fill_reducing_ordering(matrix, "amd")),
                      relax)


@pytest.mark.parametrize("seed", [2023, 4242])
@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_matrices(name, seed):
    kind, gen = LADDER[name]
    assert_same_analysis(gen(seed), kind)


@pytest.mark.parametrize("max_n", [48, 400])
@pytest.mark.parametrize("family", family_names())
def test_fuzz_families(family, max_n):
    for seed in range(20):
        case = build_case(family, seed, max_n=max_n)
        assert_same_analysis(case.matrix, case.kind, relax=RELAX[::2])


@pytest.mark.parametrize("hub_fraction", [0.05, 0.3, 0.8])
def test_circuit_hubs(hub_fraction):
    for seed in range(3):
        assert_same_analysis(circuit_like(900, hub_fraction=hub_fraction,
                                          aspect=8, seed=seed), "lu")


@pytest.mark.parametrize("dense", [
    np.zeros((0, 0)),
    np.ones((1, 1)),
    np.diag(np.arange(1.0, 41.0)),                   # diagonal only
    np.kron(np.eye(5), np.ones((9, 9))),             # disconnected cliques
    np.ones((60, 60)),                               # dense
    np.eye(50) + np.eye(50, k=1) + np.eye(50, k=-1)  # a path
    + np.pad(np.ones((1, 50)), ((0, 49), (0, 0))),   # plus one hub row
], ids=["n0", "n1", "diagonal", "disconnected", "dense", "path_hub"])
def test_small_and_degenerate_patterns(dense):
    assert_same_analysis(CSCMatrix.from_dense(dense), "cholesky")
    assert_same_analysis(CSCMatrix.from_dense(dense), "lu")


def test_static_pivoting_ties_nan_and_singular():
    """Equal magnitudes (lowest row wins), NaN magnitudes (last in their
    column; a NaN column maximum sorts as NumPy puts it), infinities,
    empty columns and rows (structurally singular)."""
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        dense = rng.choice([0.0, 1.0, -1.0, 2.0, np.nan, np.inf, 0.5],
                           size=(n, n), p=[.45, .15, .1, .1, .08, .04, .08])
        if trial % 3:
            np.fill_diagonal(dense, rng.choice([1.0, np.nan, -2.0], n))
        # from_dense drops zeros only: NaN and inf entries are stored.
        assert_same_pivoting(CSCMatrix.from_dense(dense))


def test_merge_contiguous_on_random_trees():
    """The merge rule alone, on random supernode trees with contiguous
    column ranges (every parent after its children) and random fronts."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        nsn = int(rng.integers(1, 60))
        width = rng.integers(1, 6, size=nsn)
        last = np.cumsum(width) - 1
        first = last - width + 1
        parent = np.array([int(rng.integers(k + 1, nsn + 1)) if k < nsn - 1
                           else nsn for k in range(nsn)], dtype=np.int64)
        parent[parent >= nsn] = -1
        parent[rng.random(nsn) < 0.1] = -1
        size = width + rng.integers(0, 30, size=nsn)
        knobs = RELAX[int(rng.integers(len(RELAX)))]
        args = (first, last, size, parent, knobs["relax_small"],
                knobs["relax_ratio"], knobs["force_small"])
        for ours, theirs in zip(merge_contiguous(*args),
                                golden.merge_contiguous(*args)):
            assert_equal(ours, theirs)


def test_postorder_child_key_orders_siblings():
    """``child_key`` reorders siblings only: still a postorder, subtrees
    stay contiguous, and ``None`` keeps ascending index order."""
    #        6
    #     /  |  \
    #    2   4   5        2 <- {0, 1};  4 <- {3}
    parent = np.array([2, 2, 6, 4, 6, 6, -1])
    assert golden.postorder(parent).tolist() == [0, 1, 2, 3, 4, 5, 6]
    size = [1, 1, 3, 1, 2, 1, 7]
    assert golden.postorder(parent, size.__getitem__).tolist() == \
        [5, 3, 4, 0, 1, 2, 6]
    assert golden.postorder(parent, lambda v: -size[v]).tolist() == \
        [0, 1, 2, 3, 4, 5, 6]
    assert postorder(parent).tolist() == golden.postorder(parent).tolist()


def analysis_arrays(matrix):
    """Every array the compiled walks produce for one LU matrix."""
    out = [static_pivoting(matrix)]
    matrix, _ = apply_static_pivoting(matrix)
    out += pattern_graph(matrix)
    base = matrix.pattern_symmetrized().permuted(
        fill_reducing_ordering(matrix, "amd"))
    parent = elimination_tree(base)
    post = postorder(parent)
    counts = column_counts(base, parent, post)
    out += [parent, post, counts]
    for sn in supernodes_from_counts(base, parent, counts):
        out.append(sn.rows)
    return out


def test_two_threads_analyse_at_once():
    """The walks keep no shared state: two threads analysing different
    matrices 20 times each get the serial results every time."""
    matrices = [circuit_like(1500, hub_fraction=0.02, aspect=12, seed=1),
                circuit_like(1200, hub_fraction=0.05, aspect=16, seed=2)]
    want = [analysis_arrays(m) for m in matrices]
    failures = []

    def worker(k):
        for _ in range(20):
            got = analysis_arrays(matrices[k])
            if len(got) != len(want[k]) or not all(
                    np.array_equal(a, b) for a, b in zip(got, want[k])):
                failures.append(k)

    threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures


# -- malformed input: a ValueError naming the array, never a crash ----------


def tridiagonal(n=6):
    return CSCMatrix.from_dense(np.eye(n) * 4 - np.eye(n, k=1)
                                - np.eye(n, k=-1))


def corrupt(matrix, indptr=None, indices=None, data=None):
    return CSCMatrix(matrix.n_rows, matrix.n_cols,
                     matrix.indptr if indptr is None else indptr,
                     matrix.indices if indices is None else indices,
                     matrix.data if data is None else data)


def bad_indptr(m):
    indptr = m.indptr.copy()
    indptr[2], indptr[3] = indptr[3], indptr[2]
    return indptr


def bad_indices(m, value):
    indices = m.indices.copy()
    indices[3] = value
    return indices


@pytest.mark.parametrize("call", [
    elimination_tree, static_pivoting, pattern_graph,
    lambda m: column_counts(m, elimination_tree(tridiagonal())),
], ids=["etree", "pivoting", "graph", "counts"])
@pytest.mark.parametrize("damage, match", [
    (lambda m: corrupt(m, indptr=bad_indptr(m)), "indptr"),
    (lambda m: corrupt(m, indptr=m.indptr[:-1].copy() + 0), "indptr"),
    (lambda m: corrupt(m, indices=bad_indices(m, m.n_rows)), "indices"),
    (lambda m: corrupt(m, indices=bad_indices(m, -1)), "indices"),
], ids=["unsorted_indptr", "short_indptr", "index_n", "index_neg"])
def test_malformed_pattern_rejected(call, damage, match):
    with pytest.raises(ValueError, match=match):
        call(damage(tridiagonal()))


def test_malformed_trees_rejected():
    m = tridiagonal()
    parent = elimination_tree(m)
    with pytest.raises(ValueError, match="parent"):
        postorder(np.array([1, 2, 7, -1]))               # out of range
    with pytest.raises(ValueError, match="parent"):
        postorder(np.array([-2, -1]))                    # below -1
    with pytest.raises(ValueError, match="forest"):
        postorder(np.array([1, 2, 0, -1]))               # a cycle
    with pytest.raises(ValueError, match="parent"):
        etree_heights(np.array([1, 2, 4, -1]))           # out of range
    with pytest.raises(ValueError, match="parent"):
        column_counts(m, parent[:-1])                    # too short
    flipped = parent.copy()
    flipped[3] = 1                                       # below its child
    with pytest.raises(ValueError, match="elimination tree"):
        column_counts(m, flipped, post=range(len(parent)))
    with pytest.raises(ValueError, match="post"):
        column_counts(m, parent, post=np.arange(len(parent))[::-1])
    with pytest.raises(ValueError, match="post"):
        column_counts(m, parent, post=np.zeros(len(parent), dtype=np.int64))


def test_malformed_supernode_trees_rejected():
    first, last = np.array([0, 2, 4]), np.array([1, 3, 5])
    size = np.array([4, 3, 2])
    with pytest.raises(ValueError, match="parent"):
        merge_contiguous(first, last, size, np.array([1, 5, -1]), 8, .3, 0)
    with pytest.raises(ValueError, match="first/last"):
        merge_contiguous(first, last[::-1].copy(), size,
                         np.array([1, 2, -1]), 8, .3, 0)
    with pytest.raises(ValueError, match="first/last"):
        compiled.supernode_rows(tridiagonal().indptr, tridiagonal().indices,
                                first, last + 1, np.array([1, 2, -1]))
    with pytest.raises(ValueError, match="parent"):
        compiled.supernode_rows(tridiagonal().indptr, tridiagonal().indices,
                                first, last, np.array([1, 2, 3]))


def test_pattern_graph_needs_sorted_columns():
    m = tridiagonal()
    indices = m.indices.copy()
    indices[m.indptr[2]], indices[m.indptr[2] + 1] = \
        indices[m.indptr[2] + 1], indices[m.indptr[2]]
    with pytest.raises(ValueError, match="strictly increasing"):
        pattern_graph(corrupt(m, indices=indices))


def test_pivoting_data_must_match_pattern():
    m = tridiagonal()
    with pytest.raises(ValueError, match="data"):
        static_pivoting(corrupt(m, data=m.data[:-1].copy()))

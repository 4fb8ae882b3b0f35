"""The compiled minimum degree against the frozen pure-Python AMD.

``repro.ordering.minimum_degree`` runs in the compiled core; it must be
the algorithm ``golden_oracles.minimum_degree`` is, tie rules included,
so every permutation is array-equal to the oracle's — and with it every
factor count, supernode partition and simulated cycle downstream.
"""

import threading

import numpy as np
import pytest

from repro.numeric import compiled
from repro.ordering import minimum_degree
from repro.ordering.pivoting import apply_static_pivoting
from repro.sparse import CSCMatrix, circuit_like, grid_laplacian_3d
from repro.verify.generators import build_case, family_names

from . import golden_oracles as golden

#: The ladder's AMD-ordered matrices (benchmarks/ladder/inputs.py): the
#: four solver matrices and the simulated circuit.
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


def assert_same_order(matrix):
    ours = minimum_degree(matrix)
    assert ours.dtype == np.int64
    np.testing.assert_array_equal(ours, golden.minimum_degree(matrix))


@pytest.mark.parametrize("seed", [2023, 4242])
@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_matrices(name, seed):
    kind, gen = LADDER[name]
    matrix = gen(seed)
    if kind == "lu":
        matrix, _ = apply_static_pivoting(matrix)
    assert_same_order(matrix)


@pytest.mark.parametrize("max_n", [48, 400])
@pytest.mark.parametrize("family", family_names())
def test_fuzz_families(family, max_n):
    """At ``max_n`` 400 the dense families reach the dense tail (more
    than 32 vertices left, minimum degree above half of them)."""
    for seed in range(20):
        assert_same_order(build_case(family, seed, max_n=max_n).matrix)


@pytest.mark.parametrize("hub_fraction", [0.05, 0.3, 0.8])
def test_circuit_hubs(hub_fraction):
    for seed in range(3):
        assert_same_order(circuit_like(900, hub_fraction=hub_fraction,
                                       aspect=8, seed=seed))


@pytest.mark.parametrize("pattern", [
    np.zeros((0, 0)),
    np.ones((1, 1)),
    np.eye(40),                                      # diagonal only
    np.kron(np.eye(5), np.ones((9, 9))),             # disconnected cliques
    np.ones((60, 60)),                               # dense: all tail
    np.eye(50) + np.eye(50, k=1) + np.eye(50, k=-1)  # a path
    + np.pad(np.ones((1, 50)), ((0, 49), (0, 0))),   # plus one hub row
], ids=["n0", "n1", "diagonal", "disconnected", "dense", "path_hub"])
def test_small_and_degenerate_patterns(pattern):
    assert_same_order(CSCMatrix.from_dense(pattern))


def test_two_threads_order_concurrently():
    """The ordering releases the GIL and keeps no state between calls:
    two threads ordering different matrices 20 times each get the serial
    permutations every time."""
    matrices = [grid_laplacian_3d(12, 12, 12, seed=1),
                circuit_like(3000, hub_fraction=0.05, aspect=12, seed=7)]
    serial = [minimum_degree(m) for m in matrices]
    results = [[], []]

    def work(k):
        for _ in range(20):
            results[k].append(minimum_degree(matrices[k]))

    threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k in (0, 1):
        assert len(results[k]) == 20
        for perm in results[k]:
            np.testing.assert_array_equal(perm, serial[k])


@pytest.mark.parametrize("indptr, indices", [
    ([0, 1, 2], [1, 2]),        # a neighbour past the last vertex
    ([0, 1, 2], [1, -1]),       # a negative one
    ([0, 2, 1], [1, 0]),        # indptr decreasing
    ([0, 1, 3], [1, 0]),        # indptr past the end of indices
    ([1, 1, 2], [1, 0]),        # indptr not starting at 0
])
def test_malformed_graph_is_rejected_before_the_call(indptr, indices):
    with pytest.raises(ValueError, match="adjacency lists"):
        compiled.minimum_degree(np.array(indptr), np.array(indices), 112)

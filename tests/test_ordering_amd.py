"""Quality, determinism and graph-helper tests for the array-based AMD.

The ordering is judged by the fill it measurably produces: the exact
counts of the four ladder solver matrices are pinned (a later ordering
change must re-declare them) and must not exceed what the set-based AMD
of commit dd7037e produced, because the warm, serve and RSS metrics all
ride on the permutation.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro
from repro.ordering import fill_reducing_ordering, minimum_degree, rcm
from repro.ordering.graph import bfs_levels, pattern_graph
from repro.ordering.pivoting import apply_static_pivoting
from repro.ordering.quality import score_ordering
from repro.sparse import circuit_like, grid_laplacian_3d
from repro.symbolic import symbolic_factorize
from repro.verify.generators import build_case, family_names

from . import golden_oracles as golden

#: name -> (kind, generator(seed)): the ladder's cold/warm and serve
#: matrices (benchmarks/ladder/inputs.py).
LADDER = {
    "spd3d": ("cholesky", lambda s: grid_laplacian_3d(20, 20, 20, seed=s)),
    "circuit_lu": ("lu", lambda s: circuit_like(
        12000, hub_fraction=0.02, aspect=12, seed=s)),
    "tenant_spd": ("cholesky",
                   lambda s: grid_laplacian_3d(12, 12, 12, seed=s)),
    "tenant_lu": ("lu", lambda s: circuit_like(
        2000, hub_fraction=0.05, aspect=16, seed=s)),
}

#: (factor_nnz, flops, n_supernodes) at seed 2023: what this tree's AMD
#: gives (exact; re-declare on purpose) and what dd7037e's gave.
DECLARED = {
    "spd3d": (820003, 292052405, 485),
    "circuit_lu": (178320, 12764988, 908),
    "tenant_spd": (73054, 7778616, 116),
    "tenant_lu": (32048, 2104320, 150),
}
PARENT = {
    "spd3d": (936238, 422997040, 652),
    "circuit_lu": (190374, 16130298, 966),
    "tenant_spd": (79773, 10179753, 145),
    "tenant_lu": (34780, 2866624, 155),
}
#: dd7037e's counts on the seeded (circuit) matrices at the five seeds
#: after the ladder's default; the grids' patterns do not depend on it.
PARENT_SEEDS = {
    "circuit_lu": {2024: (194710, 17843046, 959), 2025: (193467, 17280821, 959),
                   2026: (190126, 16701090, 944), 2027: (193360, 17258924, 947),
                   2028: (196564, 18844784, 914)},
    "tenant_lu": {2024: (33106, 2393706, 145), 2025: (34549, 2662463, 158),
                  2026: (34408, 2619868, 150), 2027: (33858, 2585046, 154),
                  2028: (35793, 3130867, 151)},
}
#: dd7037e's aggregate (factor_nnz, flops) per fuzz family, seeds 0..19.
PARENT_FAMILIES = {
    "spd_random": (7090, 153282), "spd_ill_conditioned": (9324, 189784),
    "spd_near_singular": (1903, 7553), "spd_dense_blocks": (2850, 26766),
    "spd_duplicate_coo": (7993, 152797), "spd_wild_values": (996, 1972),
    "spd_permuted_scaled": (3942, 20752),
    "struct_singular_chol": (8818, 177550), "lu_unsym_dd": (7285, 241538),
    "struct_singular_lu": (6543, 239514), "spd_mesh": (2122, 10208),
    # Families added after dd7037e: their counts when they were added.
    "lu_circuit": (318647, 47395569), "lu_nonfinite": (9966, 402656),
}


def solver_matrix(name, seed):
    """The matrix the solver orders: statically pivoted for LU."""
    kind, gen = LADDER[name]
    matrix = gen(seed)
    if kind == "lu":
        matrix, _ = apply_static_pivoting(matrix)
    return matrix, kind


def counts(matrix, kind, perm):
    sym = symbolic_factorize(matrix, kind=kind, perm=perm)
    return sym.factor_nnz, sym.flops, sym.n_supernodes


def mmd_permutation(matrix):
    """SuperLU's MMD_AT_PLUS_A ordering (test oracle only)."""
    n = matrix.n_rows
    pattern = sp.csc_matrix(
        (np.ones(matrix.nnz), matrix.indices, matrix.indptr), shape=(n, n))
    pattern = pattern + pattern.T
    dominant = (pattern + sp.eye(n) * (pattern.sum() + 1.0)).tocsc()
    lu = spla.splu(dominant, permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0)
    return np.argsort(lu.perm_c)


@pytest.fixture(scope="module")
def ladder_cases():
    cases = {}
    for name in LADDER:
        matrix, kind = solver_matrix(name, 2023)
        cases[name] = (matrix, kind, minimum_degree(matrix))
    return cases


@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_counts_are_declared_and_no_worse_than_parent(
        ladder_cases, name):
    matrix, kind, perm = ladder_cases[name]
    assert counts(matrix, kind, perm) == DECLARED[name]
    nnz, flops, n_sn = DECLARED[name]
    p_nnz, p_flops, p_sn = PARENT[name]
    assert nnz <= p_nnz and flops <= p_flops and n_sn <= 1.02 * p_sn


@pytest.mark.parametrize("name", sorted(PARENT_SEEDS))
def test_fill_gate_on_other_seeds(name):
    for seed, (p_nnz, p_flops, p_sn) in PARENT_SEEDS[name].items():
        matrix, kind = solver_matrix(name, seed)
        nnz, flops, n_sn = counts(matrix, kind, minimum_degree(matrix))
        assert nnz <= p_nnz and flops <= p_flops and n_sn <= 1.02 * p_sn, \
            (name, seed, nnz, flops, n_sn)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_flops_within_sanity_bound_of_superlu_mmd(ladder_cases, name):
    matrix, kind, perm = ladder_cases[name]
    reference = counts(matrix, kind, mmd_permutation(matrix))[1]
    assert DECLARED[name][1] <= 1.5 * reference


@pytest.mark.parametrize("family", family_names())
def test_fuzz_family_aggregate_fill(family):
    """Within 5 % of dd7037e's aggregate and 1.5x of SuperLU's MMD."""
    total = np.zeros(3, dtype=np.int64)
    for seed in range(20):
        case = build_case(family, seed)
        ours = counts(case.matrix, case.kind, minimum_degree(case.matrix))
        mmd = counts(case.matrix, case.kind, mmd_permutation(case.matrix))
        total += (ours[0], ours[1], mmd[1])
    p_nnz, p_flops = PARENT_FAMILIES[family]
    assert total[0] <= 1.05 * p_nnz and total[1] <= 1.05 * p_flops
    assert total[1] <= 1.5 * total[2]


def test_same_permutation_under_different_hash_seeds():
    script = (
        "import hashlib\n"
        "from repro.ordering import minimum_degree\n"
        "from repro.sparse import circuit_like, grid_laplacian_3d\n"
        "for m in (grid_laplacian_3d(7, 7, 7, seed=1),\n"
        "          circuit_like(600, hub_fraction=0.05, seed=2)):\n"
        "    print(hashlib.sha1(minimum_degree(m).tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].split()) == 2
    here = [hashlib.sha1(minimum_degree(m).tobytes()).hexdigest()
            for m in (grid_laplacian_3d(7, 7, 7, seed=1),
                      circuit_like(600, hub_fraction=0.05, seed=2))]
    assert outputs[0].split() == here


def test_relabelled_mesh_still_beats_natural_and_rcm():
    matrix = build_case("spd_mesh", 3, max_n=400).matrix
    n = matrix.n_rows
    relabel = np.random.default_rng(21).permutation(n)
    shuffled = matrix.permuted(relabel)
    amd_fill = score_ordering(shuffled, minimum_degree(shuffled)).fill
    assert amd_fill < score_ordering(shuffled, np.arange(n)).fill
    assert amd_fill < score_ordering(shuffled, rcm(shuffled)).fill
    # Relabelling moves tie-breaks, not quality.
    plain_fill = score_ordering(matrix, minimum_degree(matrix)).fill
    assert abs(amd_fill - plain_fill) <= 0.15 * plain_fill


def test_graph_helpers_match_the_per_vertex_versions():
    """``pattern_graph`` / ``bfs_levels`` (and so nd / rcm) are
    bit-identical to the add.at / per-vertex-arange versions."""
    sim_spd3d = grid_laplacian_3d(16, 16, 16, seed=2023)
    matrices = [sim_spd3d] + [build_case(family, seed).matrix
                              for family in family_names()
                              for seed in range(3)]
    rng = np.random.default_rng(5)
    for matrix in matrices:
        indptr, indices = pattern_graph(matrix)
        g_indptr, g_indices = golden.pattern_graph(matrix)
        assert np.array_equal(indptr, g_indptr)
        assert np.array_equal(indices, g_indices)
        n = matrix.n_rows
        mask = rng.random(n) < 0.7
        for start in rng.integers(0, n, size=3):
            mask[start] = True
            for m in (None, mask):
                levels, last = bfs_levels(indptr, indices, int(start), m)
                g_levels, g_last = golden.bfs_levels(
                    indptr, indices, int(start), m)
                assert np.array_equal(levels, g_levels) and last == g_last
    # Pinned from dd7037e: the ladder's sim_spd3d orders with nd.
    for method, digest in (
            ("nd", "aa4660248897cc75c0d20e2826a6ff723a66392d"),
            ("rcm", "86782773b63215d25ead7b34d2206bc651810838")):
        perm = fill_reducing_ordering(sim_spd3d, method)
        assert hashlib.sha1(perm.tobytes()).hexdigest() == digest

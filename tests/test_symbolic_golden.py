"""Golden equivalence of the fast analysis layers against the frozen
per-column / per-merge-union implementations in ``golden_oracles``.

For a *given* permutation the whole symbolic analysis (structures,
supernode partition, rows, links, extend-add maps, counts) and the
numeric context maps must be array-equal to what the old code produced,
so factors and solutions are bit-identical too.
"""

import numpy as np
import pytest

from repro.numeric.engine import NumericContext
from repro.ordering import fill_reducing_ordering
from repro.sparse import circuit_like, grid_laplacian_3d
from repro.symbolic import (
    build_assembly_tree,
    column_counts,
    column_structures,
    elimination_tree,
    find_supernodes,
    postorder,
    symbolic_factorize,
)
from repro.symbolic.structure import (
    cholesky_flops_from_counts,
    lu_flops_from_counts,
)
from repro.verify.generators import build_case, family_names

from . import golden_oracles as golden

ORDERINGS = ("amd", "nd", "rcm", "natural")

#: relax_small, relax_ratio, force_small — the default, amalgamation off,
#: a tight and a loose ratio, and the simulator's tile-sized force_small.
RELAX = (
    dict(relax_small=8, relax_ratio=0.3, force_small=0),
    dict(relax_small=0, relax_ratio=0.0, force_small=0),
    dict(relax_small=4, relax_ratio=0.1, force_small=0),
    dict(relax_small=8, relax_ratio=0.3, force_small=16),
    dict(relax_small=32, relax_ratio=0.6, force_small=16),
    dict(relax_small=1, relax_ratio=1.0, force_small=64),
)

#: The four ladder solver matrices at reduced size (same generators,
#: same seed), plus the full-size serve tenants.
LADDER = {
    "spd3d": ("cholesky", lambda: grid_laplacian_3d(8, 8, 8, seed=2023)),
    "circuit_lu": ("lu", lambda: circuit_like(
        1500, hub_fraction=0.02, aspect=12, seed=2023)),
    "tenant_spd": ("cholesky",
                   lambda: grid_laplacian_3d(12, 12, 12, seed=2023)),
    "tenant_lu": ("lu", lambda: circuit_like(
        2000, hub_fraction=0.05, aspect=16, seed=2023)),
}


def assert_supernodes_equal(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert (a.index, a.first_col, a.last_col, a.parent, a.children) \
            == (b.index, b.first_col, b.last_col, b.parent, b.children)
        assert a.rows.dtype == b.rows.dtype == np.int64
        assert np.array_equal(a.rows, b.rows)


def check_analysis(matrix, kind, perm, relax):
    """Everything ``symbolic_factorize`` returns, against the oracle."""
    g_perm, g_permuted, g_parent, g_structs, g_sns = golden.analyze(
        matrix, kind, perm, **relax)
    sym = symbolic_factorize(matrix, kind=kind, perm=perm, **relax)
    assert np.array_equal(sym.perm, g_perm)
    assert np.array_equal(sym.etree_parent, g_parent)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(sym.permuted, name),
                              getattr(g_permuted, name))
    assert_supernodes_equal(sym.tree.supernodes, g_sns)
    g_tree = build_assembly_tree(matrix.n_rows, g_sns)
    assert np.array_equal(sym.tree.col_to_sn, g_tree.col_to_sn)
    for ours, theirs in zip(sym.tree.child_maps, g_tree.child_maps):
        assert (ours is None) == (theirs is None)
        assert ours is None or np.array_equal(ours, theirs)
    counts = np.array([len(s) for s in g_structs], dtype=np.int64)
    assert sym.factor_nnz == int(counts.sum()) == sym.quality.fill
    flops = (cholesky_flops_from_counts if kind == "cholesky"
             else lu_flops_from_counts)(counts)
    assert sym.flops == flops == sym.quality.flops
    return sym, g_parent, g_structs


def check_layers(matrix, kind, perm):
    """Layers (2) and (3) called directly, as the ladder replays them."""
    sym, parent, g_structs = check_analysis(matrix, kind, perm, RELAX[0])
    pattern = (sym.permuted if kind == "cholesky"
               else sym.permuted.pattern_symmetrized())
    structs = column_structures(pattern, parent)
    assert len(structs) == len(g_structs)
    for ours, theirs in zip(structs, g_structs):
        assert ours.dtype == np.int64 and np.array_equal(ours, theirs)
    assert np.array_equal(column_counts(pattern, parent),
                          [len(s) for s in g_structs])
    for relax in RELAX[1:]:
        assert_supernodes_equal(find_supernodes(parent, structs, **relax),
                                golden.find_supernodes(parent, g_structs,
                                                       **relax))
    ctx = NumericContext(sym, matrix)
    g_flat, g_data = golden.context_maps(sym)
    for ours, theirs in zip(ctx.flat_pos + ctx.data_idx, g_flat + g_data):
        assert np.array_equal(ours, theirs)
    return sym, structs


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("name", sorted(LADDER))
def test_ladder_matrices_match_golden(name, ordering):
    kind, gen = LADDER[name]
    matrix = gen()
    check_layers(matrix, kind, fill_reducing_ordering(matrix, ordering))


@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("fixture,kind", [
    ("spd_small", "cholesky"), ("spd_medium", "cholesky"),
    ("spd_irregular", "cholesky"), ("spd_dense_ish", "cholesky"),
    ("unsym_small", "lu"),
])
def test_conftest_fixtures_match_golden(request, fixture, kind, ordering):
    matrix = request.getfixturevalue(fixture)
    perm = fill_reducing_ordering(matrix, ordering)
    check_layers(matrix, kind, perm)
    for relax in RELAX[1:]:
        check_analysis(matrix, kind, perm, relax)


@pytest.mark.parametrize("family", family_names())
def test_fuzz_families_match_golden(family):
    for seed in range(4):
        case = build_case(family, seed)
        ordering = ORDERINGS[seed % len(ORDERINGS)]
        perm = fill_reducing_ordering(case.matrix, ordering)
        check_layers(case.matrix, case.kind, perm)
        check_analysis(case.matrix, case.kind, perm, RELAX[3])


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_contiguous_merge_is_child_columns_on_parent_front(ordering):
    """Identity 1: whenever a child is column-contiguous with its parent
    the merged front has exactly n_cols(child) + len(rows(parent)) rows."""
    for kind, gen in LADDER.values():
        matrix = gen()
        perm = fill_reducing_ordering(matrix, ordering)
        _, _, parent, structs, _ = golden.analyze(matrix, kind, perm)
        for relax in (RELAX[0], RELAX[3], RELAX[4]):
            log: list = []
            golden.find_supernodes(parent, structs, merge_log=log, **relax)
            assert log
            assert all(child_cols + parent_rows == merged_rows
                       for child_cols, parent_rows, merged_rows in log)


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_supernode_rows_are_columns_plus_last_column_tail(ordering):
    """Identity 2: rows == arange(first_col, last_col + 1) ++
    structs[last_col][1:] for every final supernode."""
    for kind, gen in LADDER.values():
        matrix = gen()
        perm = fill_reducing_ordering(matrix, ordering)
        _, _, _, structs, supernodes = golden.analyze(
            matrix, kind, perm, **RELAX[3])
        for sn in supernodes:
            assert np.array_equal(sn.rows, np.concatenate((
                np.arange(sn.first_col, sn.last_col + 1),
                structs[sn.last_col][1:])))


def test_nested_columns_share_storage(spd_medium):
    """A column whose structure is a child's minus the child is a view of
    the child's array, not a fresh union."""
    sym = symbolic_factorize(spd_medium, ordering="amd")
    parent = sym.etree_parent
    structs = column_structures(sym.permuted, parent)
    nested = [j for j in range(1, sym.n)
              if parent[j - 1] == j and len(structs[j]) == len(structs[j - 1]) - 1]
    assert nested
    assert all(np.shares_memory(structs[j], structs[j - 1]) for j in nested)
    # Shared storage is safe to hand out because no array is writable.
    assert not any(s.flags.writeable for s in structs)
    with pytest.raises(ValueError):
        structs[nested[0]][0] = -1


def test_column_counts_on_an_unpostordered_tree(spd_irregular):
    """``column_counts`` serves ``ordering.quality`` and ``local_refine``
    on raw permutations, whose etrees are not postordered."""
    for ordering in ("natural", "rcm", "amd"):
        permuted = spd_irregular.permuted(
            fill_reducing_ordering(spd_irregular, ordering)[::-1].copy())
        parent = elimination_tree(permuted)
        assert np.array_equal(
            column_counts(permuted, parent),
            [len(s) for s in golden.column_structures(permuted, parent)])


def test_postorder_child_key_orders_siblings():
    """``child_key`` reorders siblings only: still a postorder, subtrees
    stay contiguous, and ``None`` keeps ascending index order."""
    #        6
    #     /  |  \
    #    2   4   5        2 <- {0, 1};  4 <- {3}
    parent = np.array([2, 2, 6, 4, 6, 6, -1])
    assert postorder(parent).tolist() == [0, 1, 2, 3, 4, 5, 6]
    size = [1, 1, 3, 1, 2, 1, 7]
    assert postorder(parent, size.__getitem__).tolist() == \
        [5, 3, 4, 0, 1, 2, 6]
    assert postorder(parent, lambda v: -size[v]).tolist() == \
        [0, 1, 2, 3, 4, 5, 6]


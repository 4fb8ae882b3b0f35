"""Adversarial matrix generation for differential verification.

The hypothesis strategies in ``tests/test_properties.py`` cover small
well-behaved matrices; this module generates the inputs that actually
break sparse solvers in production — the axes CKTSO-style validation and
factorization-in-the-loop studies sweep:

* **near-singular SPD** — graph Laplacians shifted by a tiny diagonal,
  condition number ~1/shift;
* **ill-conditioned SPD** — symmetric diagonal scaling ``D A D`` with
  ``D`` spanning many orders of magnitude (conditioning without changing
  the pattern);
* **structurally singular** — an empty row/column or missing diagonal
  (every configuration must fail *consistently*);
* **non-finite** — one ±Inf entry in an otherwise well-posed LU input
  (must be rejected everywhere, never factored into garbage);
* **circuit LU** — the power-law circuit generator at a few hundred
  rows, where small and large supernodes meet;
* **duplicate-entry COO** — assembly-style input where each logical
  nonzero is split across several coordinate entries, including pairs
  that sum to exactly zero;
* **dense-ish blocks** — arrow / block structures that stress supernode
  amalgamation and the blocked kernels;
* **permuted / scaled suite variants** — small instances of the paper's
  evaluation matrices under random symmetric permutation and scaling.

Every builder is a pure function of a ``numpy.random.Generator``, so the
same helpers back both the seeded fuzz campaign
(:mod:`repro.verify.runner`) and the hypothesis strategies in the
property-test suite (which draw a seed and delegate here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.generators import circuit_like


# -- shared low-level builders (also used by hypothesis strategies) ------------


def random_spd(rng: np.random.Generator, n: int,
               density: float = 0.3) -> CSCMatrix:
    """Random sparse SPD matrix via symmetric diagonal dominance."""
    mask = rng.random((n, n)) < density
    dense = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    dense = (dense + dense.T) / 2.0
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSCMatrix.from_dense(dense)


def ill_conditioned_spd(rng: np.random.Generator, n: int,
                        log_cond: float = 8.0,
                        density: float = 0.3) -> CSCMatrix:
    """SPD matrix with condition number ~``10**log_cond``.

    A well-conditioned diagonally dominant SPD core is scaled
    symmetrically by ``D = diag(10**u)`` with exponents spanning
    ``[-log_cond/2, log_cond/2]``: ``D A D`` stays SPD with the same
    pattern, but its conditioning is driven by the scaling.
    """
    base = random_spd(rng, n, density=density).to_dense()
    exponents = rng.uniform(-log_cond / 2.0, log_cond / 2.0, n)
    if n >= 2:
        # Pin the extremes so the target conditioning is actually reached.
        exponents[0] = -log_cond / 2.0
        exponents[1] = log_cond / 2.0
    d = 10.0 ** exponents
    return CSCMatrix.from_dense(d[:, None] * base * d[None, :])


def near_singular_spd(rng: np.random.Generator, n: int,
                      shift: float = 1e-8) -> CSCMatrix:
    """Shifted graph Laplacian: PSD + ``shift * I``, condition ~1/shift.

    The Laplacian of a connected graph is singular (constant-vector
    null space); the tiny diagonal shift makes it barely SPD.
    """
    if n == 1:
        return CSCMatrix.from_dense(np.array([[shift]]))
    rows = np.arange(n - 1)
    cols = rows + 1
    # Sprinkle extra random edges on top of the path graph.
    extra = max(0, int(0.5 * n))
    er = rng.integers(0, n, size=extra)
    ec = rng.integers(0, n, size=extra)
    keep = er != ec
    rows = np.concatenate([rows, er[keep]])
    cols = np.concatenate([cols, ec[keep]])
    dense = np.zeros((n, n))
    w = rng.uniform(0.5, 2.0, len(rows))
    dense[rows, cols] -= w
    dense[cols, rows] -= w
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, -dense.sum(axis=1) + shift)
    return CSCMatrix.from_dense(dense)


def random_unsym_dd(rng: np.random.Generator, n: int,
                    density: float = 0.3) -> CSCMatrix:
    """Diagonally dominant unsymmetric matrix (the static-pivoting LU
    regime)."""
    mask = rng.random((n, n)) < density
    dense = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1)
                     + np.abs(dense).sum(axis=0) + 1.0)
    return CSCMatrix.from_dense(dense)


def with_nonfinite_entry(rng: np.random.Generator,
                         matrix: CSCMatrix) -> CSCMatrix:
    """``matrix`` with one stored entry replaced by +Inf or -Inf — an
    input every configuration must reject.  (NaN is left to the unit
    tests: a NaN compares unequal to itself, which the value-equality
    checks on generated cases cannot tell from nondeterminism.)"""
    data = matrix.data.copy()
    data[int(rng.integers(0, len(data)))] = rng.choice([np.inf, -np.inf])
    return CSCMatrix(matrix.n_rows, matrix.n_cols, matrix.indptr.copy(),
                     matrix.indices.copy(), data)


def dense_block_spd(rng: np.random.Generator, n: int) -> CSCMatrix:
    """Block-arrow SPD matrix: dense diagonal blocks plus a dense border.

    Exercises large supernodes, straddle tiles, and amalgamation — the
    "dense-ish" end of the paper's suite (human_gene1 / nd24k character).
    """
    dense = np.zeros((n, n))
    start = 0
    while start < n:
        size = int(rng.integers(1, max(2, n // 3) + 1))
        end = min(n, start + size)
        block = rng.uniform(-1.0, 1.0, (end - start, end - start))
        dense[start:end, start:end] = (block + block.T) / 2.0
        start = end
    border = max(1, n // 8)
    strip = rng.uniform(-1.0, 1.0, (border, n))
    dense[-border:, :] = strip
    dense[:, -border:] = strip.T
    dense = (dense + dense.T) / 2.0
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0)
    return CSCMatrix.from_dense(dense)


def structurally_singular(rng: np.random.Generator, n: int,
                          kind: str) -> CSCMatrix:
    """A matrix every configuration must reject.

    For Cholesky the diagonal entry of one row is removed (a non-SPD
    zero pivot); for LU an entire column is emptied (no perfect row
    matching exists for static pivoting).
    """
    if kind == "cholesky":
        dense = random_spd(rng, n).to_dense()
        k = int(rng.integers(0, n))
        dense[k, k] = 0.0
    else:
        dense = random_unsym_dd(rng, n).to_dense()
        k = int(rng.integers(0, n))
        dense[:, k] = 0.0
    return CSCMatrix.from_dense(dense)


def duplicate_entry_coo(rng: np.random.Generator, n: int
                        ) -> tuple[COOMatrix, CSCMatrix]:
    """Assembly-style COO input with heavy duplication.

    Returns ``(coo, reference)`` where ``reference`` is the canonical
    deduplicated CSC matrix: each logical entry of an SPD matrix is split
    into 1–4 coordinate duplicates, and extra ``(+v, -v)`` pairs that sum
    to exactly zero are sprinkled on structurally-present coordinates.
    ``coo.to_csc()`` must match ``reference`` to summation-order roundoff
    (a few ulps) on every conversion path.
    """
    reference = random_spd(rng, n)
    ref_coo = reference.to_coo()
    rows, cols, vals = [], [], []
    for r, c, v in zip(ref_coo.rows, ref_coo.cols, ref_coo.vals):
        parts = int(rng.integers(1, 5))
        split = rng.dirichlet(np.ones(parts)) * v
        # Dirichlet weights sum to 1 up to roundoff; patch the first part
        # so the duplicate sum is *exactly* the reference value.
        split[0] += v - split.sum()
        for p in split:
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(p))
    # Zero-sum duplicate pairs on existing coordinates.
    n_pairs = max(1, len(ref_coo.vals) // 8)
    pick = rng.integers(0, len(ref_coo.vals), size=n_pairs)
    for i in pick:
        v = float(rng.uniform(0.5, 2.0))
        for s in (v, -v):
            rows.append(int(ref_coo.rows[i]))
            cols.append(int(ref_coo.cols[i]))
            vals.append(s)
    order = rng.permutation(len(vals))
    coo = COOMatrix(n, n,
                    np.asarray(rows)[order],
                    np.asarray(cols)[order],
                    np.asarray(vals)[order])
    return coo, reference


def permuted_scaled_variant(rng: np.random.Generator,
                            matrix: CSCMatrix) -> CSCMatrix:
    """Random symmetric permutation + symmetric positive scaling of an
    SPD matrix (SPD-preserving; pattern isomorphic)."""
    n = matrix.n_rows
    perm = rng.permutation(n)
    d = 10.0 ** rng.uniform(-2.0, 2.0, n)
    permuted = matrix.permuted(perm)
    coo = permuted.to_coo()
    return CSCMatrix.from_coo(COOMatrix(
        n, n, coo.rows, coo.cols, coo.vals * d[coo.rows] * d[coo.cols],
    ))


def mesh_spd(rng: np.random.Generator, n: int) -> CSCMatrix:
    """Randomly permuted 2-D grid Laplacian (+I): the mesh regime.

    Structured 5-point stencils are where fill-reducing orderings earn
    their keep — the natural order is near-optimal, so the generator
    scrambles the vertex numbering to make the ordering problem real.
    The +I shift keeps the matrix comfortably SPD.
    """
    nx = max(2, int(np.sqrt(n)))
    ny = max(2, n // nx)
    total = nx * ny
    dense = np.zeros((total, total))
    for x in range(nx):
        for y in range(ny):
            v = x * ny + y
            if x + 1 < nx:
                dense[v, v + ny] = dense[v + ny, v] = -1.0
            if y + 1 < ny:
                dense[v, v + 1] = dense[v + 1, v] = -1.0
    np.fill_diagonal(dense, -dense.sum(axis=1) + 1.0)
    perm = rng.permutation(total)
    return CSCMatrix.from_dense(dense[np.ix_(perm, perm)])


def wild_value_spd(rng: np.random.Generator, n: int) -> CSCMatrix:
    """Tridiagonal SPD with entry magnitudes spanning ~12 decades."""
    scale = 10.0 ** rng.uniform(-6.0, 6.0, n)
    dense = np.zeros((n, n))
    for i in range(n - 1):
        w = -min(scale[i], scale[i + 1]) * rng.uniform(0.1, 0.9)
        dense[i, i + 1] = dense[i + 1, i] = w
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + scale)
    return CSCMatrix.from_dense(dense)


# -- fuzz cases ----------------------------------------------------------------


@dataclass
class FuzzCase:
    """One differential-verification input.

    Attributes:
        name: unique, replay-stable label (family + draw parameters).
        family: generator family tag (one counter per family).
        matrix: the canonical CSC input.
        kind: "cholesky" or "lu".
        seed: derived seed for right-hand-side draws.
        expect: "ok" (must factor and solve everywhere) or "singular"
            (every configuration must raise).
        hard: True for inputs where forward-error oracle comparison is
            meaningless (near the conditioning cliff); backward-error and
            cross-configuration agreement are still enforced.
        coo: for duplicate-entry cases, the raw pre-dedup COO input.
    """

    name: str
    family: str
    matrix: CSCMatrix
    kind: str
    seed: int
    expect: str = "ok"
    hard: bool = False
    coo: COOMatrix | None = field(default=None, repr=False)


# Suite entries that stay small at the fuzzing scale (2-D grids and the
# power-law circuit matrix; the 3-D grids bottom out at 4x4x4 = 64+).
_SUITE_FUZZ_NAMES = ("apache2", "BenElechi1", "af_0_k101", "G3_circuit")


def _suite_base(rng: np.random.Generator) -> CSCMatrix:
    from repro.sparse.suite import get_matrix

    name = _SUITE_FUZZ_NAMES[int(rng.integers(0, len(_SUITE_FUZZ_NAMES)))]
    return get_matrix(name, scale=0.005)


_FAMILIES: list[tuple[str, str]] = [
    ("spd_random", "cholesky"),
    ("spd_ill_conditioned", "cholesky"),
    ("spd_near_singular", "cholesky"),
    ("spd_dense_blocks", "cholesky"),
    ("spd_duplicate_coo", "cholesky"),
    ("spd_wild_values", "cholesky"),
    ("spd_permuted_scaled", "cholesky"),
    ("struct_singular_chol", "cholesky"),
    ("lu_unsym_dd", "lu"),
    ("struct_singular_lu", "lu"),
    # Appended after the originals: build_case derives its RNG stream
    # from the family *index*, so adding at the end keeps every existing
    # (family, seed) case byte-identical.
    ("spd_mesh", "cholesky"),
    ("lu_circuit", "lu"),
    ("lu_nonfinite", "lu"),
]


def family_names() -> list[str]:
    """The generator family tags, in sweep order."""
    return [name for name, _ in _FAMILIES]


def build_case(family: str, seed: int, max_n: int = 48) -> FuzzCase:
    """Deterministically build one fuzz case for ``(family, seed)``."""
    # Derive the stream from (seed, family index) with a *stable* key —
    # hash() is per-process randomized and would break replayability.
    family_index = family_names().index(family)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(family_index,))
    )
    n = int(rng.integers(2, max(3, max_n + 1)))
    kind = dict(_FAMILIES)[family]
    expect, hard, coo = "ok", False, None
    if family == "spd_random":
        matrix = random_spd(rng, n)
    elif family == "spd_ill_conditioned":
        matrix = ill_conditioned_spd(rng, n,
                                     log_cond=float(rng.uniform(4.0, 10.0)))
        hard = True
    elif family == "spd_near_singular":
        matrix = near_singular_spd(rng, n,
                                   shift=10.0 ** rng.uniform(-9.0, -6.0))
        hard = True
    elif family == "spd_dense_blocks":
        matrix = dense_block_spd(rng, n)
    elif family == "spd_duplicate_coo":
        coo, matrix = duplicate_entry_coo(rng, n)
    elif family == "spd_wild_values":
        matrix = wild_value_spd(rng, n)
        hard = True
    elif family == "spd_mesh":
        matrix = mesh_spd(rng, n)
        n = matrix.n_rows
    elif family == "spd_permuted_scaled":
        matrix = permuted_scaled_variant(rng, _suite_base(rng))
        n = matrix.n_rows
    elif family == "struct_singular_chol":
        matrix = structurally_singular(rng, n, "cholesky")
        expect = "singular"
    elif family == "lu_unsym_dd":
        matrix = random_unsym_dd(rng, n)
    elif family == "struct_singular_lu":
        matrix = structurally_singular(rng, n, "lu")
        expect = "singular"
    elif family == "lu_circuit":
        # Sized by itself, not by max_n: a few hundred rows with dense
        # hubs put fronts on both sides of the numeric engine's
        # GROUP_FRONT_MAX (128), so grouped subtrees and single-supernode
        # tasks both run.
        matrix = circuit_like(int(rng.integers(400, 701)), hub_fraction=0.8,
                              aspect=8, seed=int(rng.integers(2**31)))
    elif family == "lu_nonfinite":
        matrix = with_nonfinite_entry(rng, random_unsym_dd(rng, n))
        expect = "singular"
    else:
        raise ValueError(f"unknown fuzz family {family!r}")
    return FuzzCase(
        name=f"{family}[seed={seed},n={matrix.n_rows}]",
        family=family, matrix=matrix, kind=kind, seed=seed,
        expect=expect, hard=hard, coo=coo,
    )


def case_stream(seed: int, max_n: int = 48):
    """Infinite deterministic stream of fuzz cases, cycling families.

    ``case_stream(seed)`` always yields the same sequence — a failing
    campaign is replayed exactly by its seed.
    """
    round_no = 0
    while True:
        for family, _ in _FAMILIES:
            yield build_case(family, seed + round_no, max_n=max_n)
        round_no += 1

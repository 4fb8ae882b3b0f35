"""Fill-reducing orderings, quality scoring, search, and autotuning.

Symbolic factorization quality (and hence the supernode structure the whole
paper revolves around) depends on a fill-reducing permutation of the matrix.
This subpackage implements the standard ordering toolbox used by multifrontal
packages, organized as a plugin registry (see docs/ORDERING.md):

* :func:`minimum_degree` — quotient-graph minimum degree (AMD-family);
* :func:`rcm` — reverse Cuthill-McKee (bandwidth reduction);
* :func:`nested_dissection` — recursive vertex-separator bisection;
* :func:`local_refine` — seeded hill-climbing refinement of an AMD seed
  against the exact symbolic fill objective (:mod:`repro.ordering
  .local_refine`);
* :func:`static_pivoting` — row matching that moves large entries to the
  diagonal for numerically stable LU without dynamic pivoting (Section 2.4).

On top of the registry (:mod:`repro.ordering.registry`) sit two layers:
a quality harness (:mod:`repro.ordering.quality`) scoring any permutation
— fill, symbolic FLOPs, etree height, level occupancy, optionally
simulated cycles — and a per-matrix-family autotuner
(:mod:`repro.ordering.autotune`) that sweeps ordering x block size x
workers and serves cached best-configs from its trial store to
``SparseSolver(ordering="auto")`` / ``solve --ordering auto``.

All orderings return a permutation array ``perm`` mapping new index -> old
index, usable directly with :meth:`repro.sparse.CSCMatrix.permuted`.
"""

from repro.ordering.graph import pattern_graph
from repro.ordering.mindeg import minimum_degree
from repro.ordering.rcm import rcm
from repro.ordering.dissection import nested_dissection
from repro.ordering.pivoting import static_pivoting
from repro.ordering.registry import (
    OrderingMethod,
    available_orderings,
    get_ordering,
    ordering_capabilities,
    register_ordering,
    unregister_ordering,
)
from repro.ordering.api import fill_reducing_ordering
from repro.ordering.local_refine import local_refine
from repro.ordering.quality import (
    OrderingScore,
    compare_orderings,
    export_quality_gauges,
    score_ordering,
    validate_permutation,
)
from repro.ordering.autotune import (
    AutotuneResult,
    Trial,
    TrialStore,
    TunedConfig,
    autotune,
    best_config,
    matrix_fingerprint,
    resolve_auto,
)

__all__ = [
    "pattern_graph",
    "minimum_degree",
    "rcm",
    "nested_dissection",
    "static_pivoting",
    "fill_reducing_ordering",
    # registry
    "OrderingMethod",
    "register_ordering",
    "unregister_ordering",
    "get_ordering",
    "available_orderings",
    "ordering_capabilities",
    # search
    "local_refine",
    # quality harness
    "OrderingScore",
    "score_ordering",
    "compare_orderings",
    "export_quality_gauges",
    "validate_permutation",
    # autotuner
    "Trial",
    "TrialStore",
    "TunedConfig",
    "AutotuneResult",
    "autotune",
    "best_config",
    "matrix_fingerprint",
    "resolve_auto",
]

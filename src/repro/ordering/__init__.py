"""Fill-reducing orderings and their quality scoring.

Symbolic factorization quality (and hence the supernode structure the whole
paper revolves around) depends on a fill-reducing permutation of the matrix.
This subpackage implements the standard ordering toolbox used by multifrontal
packages, organized as a plugin registry (see docs/ORDERING.md):

* :func:`minimum_degree` — quotient-graph minimum degree (AMD-family);
* :func:`rcm` — reverse Cuthill-McKee (bandwidth reduction);
* :func:`nested_dissection` — recursive vertex-separator bisection;
* :func:`static_pivoting` — row matching that moves large entries to the
  diagonal for numerically stable LU without dynamic pivoting (Section 2.4).

On top of the registry (:mod:`repro.ordering.registry`) sits a quality
harness (:mod:`repro.ordering.quality`) scoring any permutation — fill,
symbolic FLOPs, etree height, level occupancy, optionally simulated
cycles.

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
    register_ordering,
    unregister_ordering,
)
from repro.ordering.api import fill_reducing_ordering
from repro.ordering.quality import (
    OrderingScore,
    compare_orderings,
    export_quality_gauges,
    score_ordering,
    validate_permutation,
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
    # quality harness
    "OrderingScore",
    "score_ordering",
    "compare_orderings",
    "export_quality_gauges",
    "validate_permutation",
]

"""Pluggable registry of fill-reducing ordering methods.

Every ordering the stack knows about — the built-in heuristics
(amd/nd/rcm/natural) and any third-party method registered via
:func:`register_ordering` — lives here as a named
:class:`OrderingMethod`.  The dispatch entry point
:func:`~repro.ordering.api.fill_reducing_ordering`, the CLI's
``--ordering`` choices, and the error messages users see all derive
from this single table, so plugins never drift out of sync with the
rest of the stack.

Registering a new ordering::

    from repro.ordering.registry import register_ordering

    @register_ordering("metis_like", description="my external ordering")
    def metis_like(matrix):
        ...
        return perm  # np.int64, new index -> old index

The callable takes a :class:`~repro.sparse.csc.CSCMatrix` and returns a
permutation mapping *new index -> old index*, exactly like the
built-ins.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.ordering.dissection import nested_dissection
from repro.ordering.mindeg import minimum_degree
from repro.ordering.rcm import rcm
from repro.sparse.csc import CSCMatrix

OrderingFn = Callable[[CSCMatrix], np.ndarray]


@dataclass(frozen=True)
class OrderingMethod:
    """One registered ordering method.

    Attributes:
        name: registry key (also the ``--ordering`` CLI value).
        fn: ``fn(matrix) -> perm`` (new index -> old index).
        description: one-line summary for docs.
        builtin: shipped with the repo (vs. plugin-registered).
    """

    name: str
    fn: OrderingFn
    description: str = ""
    builtin: bool = False


_REGISTRY: dict[str, OrderingMethod] = {}


def register_ordering(
    name: str,
    *,
    description: str = "",
    builtin: bool = False,
    overwrite: bool = False,
) -> Callable[[OrderingFn], OrderingFn]:
    """Decorator registering ``fn(matrix) -> perm`` under ``name``.

    Raises:
        ValueError: on an empty/invalid name, or a duplicate registration
            without ``overwrite=True``.
    """
    if not name or not isinstance(name, str) or name.strip() != name:
        raise ValueError(f"invalid ordering name {name!r}")

    def decorator(fn: OrderingFn) -> OrderingFn:
        if name in _REGISTRY and not overwrite:
            raise ValueError(
                f"ordering {name!r} is already registered; "
                f"pass overwrite=True to replace it")
        _REGISTRY[name] = OrderingMethod(
            name=name, fn=fn,
            description=description or (fn.__doc__ or "").strip().split("\n")[0],
            builtin=builtin,
        )
        return fn

    return decorator


def unregister_ordering(name: str) -> None:
    """Remove a registered ordering (built-ins refuse removal)."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ValueError(f"unknown ordering {name!r}")
    if entry.builtin:
        raise ValueError(f"cannot unregister built-in ordering {name!r}")
    del _REGISTRY[name]


def get_ordering(name: str) -> OrderingMethod:
    """Look up a registered ordering; error lists the registry contents."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown ordering {name!r}; "
            f"choose from {available_orderings()}") from None


def available_orderings() -> tuple[str, ...]:
    """Registered ordering names, sorted (built-ins and plugins alike)."""
    return tuple(sorted(_REGISTRY))


# -- built-ins -------------------------------------------------------------


register_ordering(
    "amd", builtin=True,
    description="quotient-graph approximate minimum degree",
)(minimum_degree)

register_ordering(
    "nd", builtin=True,
    description="recursive nested dissection (BFS vertex separators)",
)(nested_dissection)

register_ordering(
    "rcm", builtin=True,
    description="reverse Cuthill-McKee (bandwidth-reducing BFS)",
)(rcm)


@register_ordering(
    "natural", builtin=True,
    description="identity ordering (matrices pre-ordered by the generator)",
)
def _natural(matrix: CSCMatrix) -> np.ndarray:
    return np.arange(matrix.n_rows, dtype=np.int64)

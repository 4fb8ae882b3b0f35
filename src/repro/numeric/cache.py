"""Process-global, pattern-keyed cache of symbolic analyses.

Fill-reducing ordering plus symbolic factorization is the expensive,
value-independent half of a direct solve.  In the workloads Spatula
targets (circuit simulation, physics timestepping) many solver instances
are built over the *same* nonzero pattern — so the analysis is a pure
function of (pattern, kind, ordering) and can be shared process-wide.

:class:`AnalysisCache` is a thread-safe bounded LRU keyed on a SHA-1
digest of the exact CSC pattern bytes plus the analysis parameters.  A
hit returns the *same* :class:`~repro.symbolic.analyze.SymbolicFactorization`
object, which also carries the cached
:class:`~repro.numeric.engine.NumericContext` scatter maps — so a second
``SparseSolver`` on an already-analyzed pattern skips ordering, symbolic
factorization, *and* assembly-map construction, going straight to the
numeric phase.

One ``OrderedDict`` under one lock: the cache is read only when a
``SparseSolver`` is constructed (the solve server does that once per
pattern), so a lock held for a dictionary lookup is never what a caller
waits on.  Eviction is exact LRU, concurrent callers included.  The
analysis itself runs outside the lock; when two callers miss on one key
at once, both analyze and the first to insert wins, so both get the same
object.

Hits, misses, and evictions are counted in the global metrics registry
(``numeric.analysis_cache.hits`` / ``.misses`` / ``.evictions``, plus
``.size`` / ``.capacity`` / ``.hit_rate`` gauges) so run artifacts show
whether the amortization actually happened — and, under a multi-tenant
workload, whether the working set of patterns fits the configured
capacity.  The global cache's capacity defaults to
:data:`DEFAULT_CAPACITY` (env ``REPRO_ANALYSIS_CACHE_CAP``).
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict

import numpy as np

from repro.obs.metrics import global_registry
from repro.sparse.csc import CSCMatrix
from repro.symbolic.analyze import SymbolicFactorization, symbolic_factorize


#: Default bound on the number of cached analyses.  Each entry holds the
#: full symbolic factorization plus (lazily) the numeric scatter maps,
#: so the bound is a memory bound, not an entry-count nicety.
DEFAULT_CAPACITY = 32

#: Environment override for the process-global cache's capacity.
ENV_CAPACITY = "REPRO_ANALYSIS_CACHE_CAP"


def pattern_digest(matrix: CSCMatrix) -> str:
    """SHA-1 digest of a CSC matrix's exact nonzero pattern."""
    h = hashlib.sha1()
    h.update(np.int64(matrix.n_rows).tobytes())
    h.update(np.int64(matrix.n_cols).tobytes())
    h.update(np.ascontiguousarray(matrix.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(matrix.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


class AnalysisCache:
    """Thread-safe bounded LRU of symbolic analyses.

    Keys are (pattern digest, kind, ordering); values are the shared
    analysis objects.  For LU the caller passes the *post-static-pivoting*
    work matrix: the row matching is value dependent, so only the matched
    pattern identifies the analysis.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, SymbolicFactorization] = \
            OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(matrix: CSCMatrix, kind: str, ordering: str) -> tuple:
        return (pattern_digest(matrix), kind, ordering)

    def get_or_analyze(self, matrix: CSCMatrix, kind: str,
                       ordering: str) -> SymbolicFactorization:
        """Return the cached analysis for this pattern, or run and cache it."""
        key = self.key(matrix, kind, ordering)
        reg = global_registry()
        with self._lock:
            symbolic = self._entries.get(key)
            if symbolic is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                reg.counter("numeric.analysis_cache.hits").inc()
                self._export_state()
                return symbolic
        # Analyze outside the lock: ordering + symbolic can be slow.
        fresh = symbolic_factorize(matrix, kind=kind, ordering=ordering)
        with self._lock:
            self.misses += 1
            reg.counter("numeric.analysis_cache.misses").inc()
            # A racing miss on the same key may have inserted first; keep
            # its analysis so every caller shares one object.
            symbolic = self._entries.setdefault(key, fresh)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                reg.counter("numeric.analysis_cache.evictions").inc()
            self._export_state()
        return symbolic

    def _export_state(self) -> None:
        # Called under the lock.  hit_rate is one of `report --diff`'s
        # watched metrics (repro.obs.artifact.WATCHED_METRICS).
        reg = global_registry()
        reg.gauge("numeric.analysis_cache.size").set(len(self._entries))
        reg.gauge("numeric.analysis_cache.capacity").set(self.capacity)
        total = self.hits + self.misses
        if total:
            reg.gauge("numeric.analysis_cache.hit_rate").set(
                self.hits / total)

    def stats(self) -> dict:
        """Point-in-time counters (for artifacts and serving stats)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        """Drop all cached analyses (hit/miss/eviction totals are kept)."""
        with self._lock:
            self._entries.clear()
            self._export_state()

    def __len__(self) -> int:
        return len(self._entries)


def _capacity_from_env() -> int:
    raw = os.environ.get(ENV_CAPACITY)
    if not raw:
        return DEFAULT_CAPACITY
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_CAPACITY


_global_cache = AnalysisCache(capacity=_capacity_from_env())


def analysis_cache() -> AnalysisCache:
    """The process-global analysis cache used by ``SparseSolver``."""
    return _global_cache

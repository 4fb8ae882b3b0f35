"""Process-global, pattern-keyed, *sharded* cache of symbolic analyses.

Fill-reducing ordering plus symbolic factorization is the expensive,
value-independent half of a direct solve.  In the workloads Spatula
targets (circuit simulation, physics timestepping) many solver instances
are built over the *same* nonzero pattern — so the analysis is a pure
function of (pattern, kind, ordering, relaxation parameters) and can be
shared process-wide.

:class:`AnalysisCache` is a thread-safe bounded LRU keyed on a SHA-1
digest of the exact CSC pattern bytes plus the analysis parameters.  A
hit returns the *same* :class:`~repro.symbolic.analyze.SymbolicFactorization`
object, which also carries the cached
:class:`~repro.numeric.engine.NumericContext` scatter maps — so a second
``SparseSolver`` on an already-analyzed pattern skips ordering, symbolic
factorization, *and* assembly-map construction, going straight to the
numeric phase.

Sharding: under a multi-tenant serving load (:mod:`repro.serve`) many
threads hit the cache concurrently, and one global lock would serialize
every warm-path lookup.  Entries are therefore distributed over
``shards`` independent shards, each with its own lock — the hot path (a
hit) takes exactly one shard lock.  The capacity bound stays *global*: a
monotonic access tick orders entries across shards, and inserts evict
the globally least-recently-used entry (a short maintenance-lock
section; hits never touch it).  Under concurrent access a racing hit can
promote the chosen victim between selection and removal, in which case
the next-oldest entry goes instead — the bound itself is always exact.

Hits, misses, and evictions are counted in the global metrics registry
(``numeric.analysis_cache.hits`` / ``.misses`` / ``.evictions``, plus
``.size`` / ``.capacity`` / ``.hit_rate`` gauges and per-shard
``.shard.<i>.size`` / ``.shard.<i>.hit_rate`` gauges) so run artifacts
show whether the amortization actually happened — and, under a
multi-tenant workload, whether the working set of patterns fits the
configured capacity.  The global cache's capacity defaults to
:data:`DEFAULT_CAPACITY` (env ``REPRO_ANALYSIS_CACHE_CAP``) and its
shard count to :data:`DEFAULT_SHARDS` (env
``REPRO_ANALYSIS_CACHE_SHARDS``); both are also constructor arguments.
"""

from __future__ import annotations

import hashlib
import itertools
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

#: Default shard count for lock striping.  Eight shards keep warm-path
#: contention negligible for the worker-thread counts the serve layer
#: runs while costing eight tiny OrderedDicts.
DEFAULT_SHARDS = 8

#: Environment override for the process-global cache's capacity.
ENV_CAPACITY = "REPRO_ANALYSIS_CACHE_CAP"

#: Environment override for the process-global cache's shard count.
ENV_SHARDS = "REPRO_ANALYSIS_CACHE_SHARDS"


def pattern_digest(matrix: CSCMatrix) -> str:
    """SHA-1 digest of a CSC matrix's exact nonzero pattern."""
    h = hashlib.sha1()
    h.update(np.int64(matrix.n_rows).tobytes())
    h.update(np.int64(matrix.n_cols).tobytes())
    h.update(np.ascontiguousarray(matrix.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(matrix.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


class _Shard:
    """One lock stripe: an insertion/recency-ordered slice of the cache.

    ``entries`` maps key -> ``[tick, symbolic]`` and is kept in recency
    order (every access does ``move_to_end``), so its first item is the
    shard's LRU entry and carries the shard's oldest tick.
    """

    __slots__ = ("lock", "entries", "hits", "misses", "evictions")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: OrderedDict[tuple, list] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class AnalysisCache:
    """Thread-safe, sharded, globally-bounded LRU of symbolic analyses.

    Keys are (pattern digest, kind, ordering, relax_small, relax_ratio);
    values are the shared analysis objects.  For LU the caller passes the
    *post-static-pivoting* work matrix: the row matching is value
    dependent, so only the matched pattern identifies the analysis.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 shards: int | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        n_shards = DEFAULT_SHARDS if shards is None else shards
        if n_shards < 1:
            raise ValueError("shards must be >= 1")
        self.capacity = capacity
        self._shards = [_Shard() for _ in range(n_shards)]
        # Global recency clock: every access stamps its entry, so the
        # globally-LRU entry is the one with the smallest tick.  next()
        # on itertools.count is atomic under the GIL.
        self._tick = itertools.count()
        # Serializes eviction sweeps (inserts only; hits never take it).
        self._maintenance = threading.Lock()

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @staticmethod
    def key(matrix: CSCMatrix, kind: str, ordering: str,
            relax_small: int, relax_ratio: float) -> tuple:
        return (pattern_digest(matrix), kind, ordering,
                int(relax_small), float(relax_ratio))

    def shard_index(self, key: tuple) -> int:
        """Stable shard assignment from the pattern digest (key[0])."""
        return int(key[0][:8], 16) % len(self._shards)

    def _shard_for(self, key: tuple) -> _Shard:
        return self._shards[self.shard_index(key)]

    # -- counters (aggregated across shards) ------------------------------

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self._shards)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self._shards)

    @property
    def evictions(self) -> int:
        return sum(s.evictions for s in self._shards)

    # -- core --------------------------------------------------------------

    def get_or_analyze(
        self,
        matrix: CSCMatrix,
        kind: str,
        ordering: str,
        relax_small: int = 8,
        relax_ratio: float = 0.3,
    ) -> SymbolicFactorization:
        """Return the cached analysis for this pattern, or run and cache it."""
        key = self.key(matrix, kind, ordering, relax_small, relax_ratio)
        shard = self._shard_for(key)
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is not None:
                shard.entries.move_to_end(key)
                entry[0] = next(self._tick)
                shard.hits += 1
                global_registry().counter(
                    "numeric.analysis_cache.hits").inc()
        if entry is not None:
            self._export_state()
            return entry[1]
        # Analyze outside every lock: ordering + symbolic can be slow,
        # and a duplicate analysis under contention is merely wasted
        # work, never wrong (last writer wins; both results are
        # identical).
        symbolic = symbolic_factorize(
            matrix, kind=kind, ordering=ordering,
            relax_small=relax_small, relax_ratio=relax_ratio,
        )
        with shard.lock:
            shard.misses += 1
            global_registry().counter("numeric.analysis_cache.misses").inc()
            shard.entries[key] = [next(self._tick), symbolic]
            shard.entries.move_to_end(key)
        self._evict_to_capacity()
        self._export_state()
        return symbolic

    def set_capacity(self, capacity: int) -> None:
        """Rebound the cache, evicting LRU entries if it shrank."""
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._evict_to_capacity()
        self._export_state()

    def _evict_to_capacity(self) -> None:
        """Evict globally-LRU entries until the total fits the bound.

        Only inserts and rebounds reach this; the maintenance lock makes
        the sweep single-file without ever blocking shard-local hits.
        """
        with self._maintenance:
            while True:
                total = sum(len(s.entries) for s in self._shards)
                if total <= self.capacity:
                    return
                victim: _Shard | None = None
                oldest = None
                for s in self._shards:
                    with s.lock:
                        if s.entries:
                            tick = next(iter(s.entries.values()))[0]
                            if oldest is None or tick < oldest:
                                oldest, victim = tick, s
                if victim is None:
                    return
                with victim.lock:
                    if victim.entries:
                        victim.entries.popitem(last=False)
                        victim.evictions += 1
                        global_registry().counter(
                            "numeric.analysis_cache.evictions").inc()

    def _export_state(self) -> None:
        # Gauges are last-writer-wins; a point-in-time snapshot across
        # shards is all `report --diff` needs.  hit_rate is one of its
        # watched metrics (repro.obs.artifact.WATCHED_METRICS).
        reg = global_registry()
        reg.gauge("numeric.analysis_cache.size").set(len(self))
        reg.gauge("numeric.analysis_cache.capacity").set(self.capacity)
        hits, misses = self.hits, self.misses
        total = hits + misses
        if total:
            reg.gauge("numeric.analysis_cache.hit_rate").set(hits / total)
        for i, s in enumerate(self._shards):
            reg.gauge(f"numeric.analysis_cache.shard.{i}.size").set(
                len(s.entries))
            shard_total = s.hits + s.misses
            if shard_total:
                reg.gauge(
                    f"numeric.analysis_cache.shard.{i}.hit_rate").set(
                        s.hits / shard_total)

    def stats(self) -> dict:
        """Point-in-time counters (for artifacts and serving stats)."""
        return {
            "size": len(self),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def shard_stats(self) -> list[dict]:
        """Per-shard counter breakdown (serving stats / shard metrics)."""
        out = []
        for s in self._shards:
            with s.lock:
                out.append({
                    "size": len(s.entries),
                    "hits": s.hits,
                    "misses": s.misses,
                    "evictions": s.evictions,
                })
        return out

    def clear(self) -> None:
        """Drop all cached analyses (hit/miss/eviction totals are kept)."""
        for s in self._shards:
            with s.lock:
                s.entries.clear()
        self._export_state()

    def __len__(self) -> int:
        return sum(len(s.entries) for s in self._shards)


def _capacity_from_env() -> int:
    raw = os.environ.get(ENV_CAPACITY)
    if not raw:
        return DEFAULT_CAPACITY
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_CAPACITY


def _shards_from_env() -> int:
    raw = os.environ.get(ENV_SHARDS)
    if not raw:
        return DEFAULT_SHARDS
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_SHARDS


_global_cache = AnalysisCache(capacity=_capacity_from_env(),
                              shards=_shards_from_env())


def analysis_cache() -> AnalysisCache:
    """The process-global analysis cache used by ``SparseSolver``."""
    return _global_cache

"""LRU result cache for the search service.

The sweep is the expensive phase (O(m·n) over the whole database); the
cache remembers its *ranked candidate* output keyed by everything the
ranking depends on — query text, scoring scheme, index version stamp,
and the ``min_score``/``top`` knobs.  Anything downstream of the sweep
(alignment retrieval, E-values, rendering) is cheap and recomputed per
request, so a cached entry stays valid across different ``retrieve``
or statistics settings.

Keying on the index *version* (a content hash, see
:class:`~repro.service.index.DatabaseIndex`) is what makes invalidation
automatic: rebuilding the index over changed data yields a new version
string and therefore a disjoint key space — stale rankings cannot be
served, and no explicit flush protocol is needed.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from ..align.scoring import AffineScoring, LinearScoring, SubstitutionMatrix
from ..obs.metrics import NULL_REGISTRY, MetricsRegistry

__all__ = ["scheme_token", "CacheKey", "CacheStats", "ResultCache"]


def scheme_token(scheme: object) -> tuple[Hashable, ...]:
    """A hashable value identifying a scoring scheme's behaviour.

    Two schemes that score every pair identically map to the same
    token; substitution matrices hash their full lookup table, so two
    differently-built but identical matrices also coincide.
    """
    if isinstance(scheme, LinearScoring):
        return ("linear", scheme.match, scheme.mismatch, scheme.gap)
    if isinstance(scheme, AffineScoring):
        return ("affine", scheme.match, scheme.mismatch, scheme.gap_open, scheme.gap_extend)
    if isinstance(scheme, SubstitutionMatrix):
        table_hash = hashlib.sha256(scheme._table.tobytes()).hexdigest()[:16]
        return ("matrix", scheme.gap, table_hash)
    raise TypeError(f"cannot derive a cache token for {type(scheme).__name__}")


@dataclass(frozen=True)
class CacheKey:
    """Everything the sweep ranking depends on.

    ``generation`` is the hot-reload generation number of the index
    the sweep ran against (see
    :class:`~repro.service.guard.IndexManager`).  The content hash in
    ``index_version`` already separates *different* data; the
    generation additionally separates two loads of byte-identical data
    so that a reload always yields a fresh key space — a cached
    response whose generation differs from the live one is unreachable
    even before the reload's eviction pass runs.

    ``kernel`` is the resolved :mod:`repro.kernels` backend name the
    sweep ran on.  Backends are bit-identical, so sharing entries
    across kernels would be *correct* — but keying on the kernel keeps
    hit-rate accounting honest per backend and means a request that
    explicitly asked for a backend provably exercised it at least
    once.
    """

    query: str
    scheme: tuple[Hashable, ...]
    index_version: str
    min_score: int
    top: int
    kernel: str
    generation: int = 0


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot — hit rate is hits over all lookups."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """Bounded LRU mapping :class:`CacheKey` to sweep results.

    ``capacity=0`` disables caching entirely (every lookup misses,
    nothing is stored) — the ``--no-cache`` CLI path.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"capacity cannot be negative, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, object] = OrderedDict()
        # Serving threads and reload/ingest publishers share one cache;
        # check-then-move and iterate-then-delete must be atomic.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bind(NULL_REGISTRY)

    def bind(self, registry: MetricsRegistry) -> None:
        """Register this cache's counters on ``registry``.

        The counters count from the moment of binding (the engine
        binds at construction, before any traffic); the cumulative
        ``hits``/``misses`` attributes remain the full-history view.
        """
        self._m_hits = registry.counter(
            "cache_hits_total", "Result-cache lookups answered without a sweep"
        )
        self._m_misses = registry.counter(
            "cache_misses_total", "Result-cache lookups that required a sweep"
        )
        self._m_evictions = registry.counter(
            "cache_evictions_total", "Result-cache LRU evictions"
        )
        registry.gauge("cache_capacity", "Result-cache entry capacity").set(
            self.capacity
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def get(self, key: CacheKey) -> object | None:
        """Look up ``key``; counts a hit/miss and refreshes recency."""
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._m_hits.inc()
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
            self._m_misses.inc()
            return None

    def put(self, key: CacheKey, value: object) -> None:
        """Insert ``key``; evicts the least-recently-used past capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._m_evictions.inc()

    def clear(self) -> None:
        """Drop all entries (counters are kept — they describe traffic)."""
        with self._lock:
            self._entries.clear()

    def evict_where(self, predicate) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        Returns the number of entries evicted (counted as evictions —
        they are capacity reclaimed, just not by LRU pressure).  Hot
        index reload uses this to purge all prior-generation entries.
        """
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
                self.evictions += 1
                self._m_evictions.inc()
        return len(stale)

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            capacity=self.capacity,
        )

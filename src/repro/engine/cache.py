"""Bounded LRU cache of prepared execution plans.

Preprocessing (reordering + BCSR blocking) dominates the cost of a single
SpMM by orders of magnitude, so a serving workload that sees the same
sparse matrices repeatedly must reuse the prepared
:class:`~repro.core.plan.ExecutionPlan` rather than rebuild it.  The cache
is keyed by :func:`~repro.core.plan.plan_key` (matrix fingerprint +
configuration signature), bounded to ``maxsize`` entries with
least-recently-used eviction, and safe for concurrent use from the
engine's thread pool.  Concurrent misses on the *same* key build the plan
only once: the second thread blocks on a per-key build lock and then takes
the cached result.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple, TypeVar

__all__ = ["CacheStats", "PlanCache"]

T = TypeVar("T")


@dataclass
class CacheStats:
    """Counters describing the cache's behaviour so far."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        """Total cache lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """Thread-safe bounded LRU mapping of plan keys to built values.

    Parameters
    ----------
    maxsize:
        Maximum number of cached entries; the least recently used entry
        is evicted when a new one would exceed it.  Must be >= 1.
    """

    def __init__(self, maxsize: int = 8):
        if maxsize < 1:
            raise ValueError("PlanCache maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._building: Dict[Hashable, threading.Lock] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- lookup ---------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[object]:
        """Return the cached value for ``key`` (marking it recently used),
        or ``None``.  Counts as a hit or miss."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._hits += 1
                return self._data[key]
            self._misses += 1
            return None

    def get_or_build(self, key: Hashable, factory: Callable[[], T]) -> Tuple[T, bool]:
        """Return ``(value, was_hit)`` for ``key``, calling ``factory()``
        on a miss.

        The factory runs outside the cache-wide lock (plan builds are
        slow) but under a per-key lock, so concurrent misses on the same
        key build once and everyone else reuses the result.
        """
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._hits += 1
                return self._data[key], True  # type: ignore[return-value]
            build_lock = self._building.setdefault(key, threading.Lock())
        with build_lock:
            with self._lock:
                if key in self._data:
                    # another thread finished the build while we waited
                    self._data.move_to_end(key)
                    self._hits += 1
                    self._building.pop(key, None)
                    return self._data[key], True  # type: ignore[return-value]
            try:
                value = factory()
            finally:
                # a failed build is still a miss, and must not leak its
                # per-key build lock
                with self._lock:
                    self._misses += 1
                    self._building.pop(key, None)
            with self._lock:
                self._insert(key, value)
            return value, False

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        with self._lock:
            self._insert(key, value)

    def _insert(self, key: Hashable, value: object) -> None:
        # caller holds self._lock
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self._evictions += 1

    # -- maintenance ----------------------------------------------------------
    def reserve(self, minsize: int) -> None:
        """Grow the capacity to at least ``minsize`` (never shrinks).

        Workloads with a known working set -- e.g. a sharded multiply
        needing one partition plus one plan per shard resident at once --
        use this to avoid permanent LRU thrash on undersized caches.
        """
        with self._lock:
            if minsize > self.maxsize:
                self.maxsize = int(minsize)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._data.clear()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                maxsize=self.maxsize,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"<PlanCache size={s.size}/{s.maxsize} hits={s.hits} "
            f"misses={s.misses} evictions={s.evictions}>"
        )

"""Classic access-time replacement comparators: LRU, GDS, LFU-DA.

The paper chose GD* as its baseline because it beats LRU,
GreedyDual-Size and LFU-DA on hit ratio (§3.1, citing Jin & Bestavros).
These three are implemented so that claim can be checked in this
reproduction (``tests/paper/test_ablation_gdstar_variants.py``,
``test_classic_baseline_comparison``) and so users
have drop-in alternatives.  All three are access-time-only policies:
``on_publish`` is a no-op.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.entry import CacheEntry
from repro.core._base import HeapCache
from repro.core.policy import (
    PUSH_SKIPPED,
    REQUEST_HIT,
    REQUEST_MISS,
    REQUEST_MISS_CACHED,
    REQUEST_STALE,
    Policy,
    PushOutcome,
    RequestOutcome,
)


class _AccessOnlyPolicy(Policy):
    """Shared skeleton: no push placement, unconditional admission."""

    uses_push = False

    def __init__(self, capacity_bytes: int, cost: float = 1.0) -> None:
        super().__init__(capacity_bytes, cost)
        self._cache = HeapCache(capacity_bytes)

    def on_publish(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> PushOutcome:
        return PUSH_SKIPPED

    def on_request(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> RequestOutcome:
        entry = self._cache.get(page_id)
        if entry is not None and entry.version == version:
            entry.record_access(now)
            self._cache.reprice(entry, self._value(entry, now))
            self._record_request(hit=True, size=size, now=now)
            return REQUEST_HIT
        if entry is not None:
            entry.version = version
            entry.record_access(now)
            self._cache.reprice(entry, self._value(entry, now))
            self._record_request(hit=False, size=size, now=now, stale=True)
            return REQUEST_STALE

        self._record_request(hit=False, size=size, now=now)
        result = self._cache.evict_for(size)
        if not result.success:
            return REQUEST_MISS
        for evicted in result.evicted:
            self._note_eviction(evicted)
        self._after_evictions(result)
        entry = CacheEntry(
            page_id=page_id,
            version=version,
            size=size,
            cost=self.cost,
            access_count=1,
            last_access_time=now,
        )
        self._cache.add(entry, self._value(entry, now))
        return REQUEST_MISS_CACHED

    def _after_evictions(self, result) -> None:
        """Hook for aging mechanisms (GDS/LFU-DA inflation)."""

    def drop_contents(self) -> None:
        self._cache.clear()
        if hasattr(self, "inflation"):
            self.inflation = 0.0

    def _value(self, entry: CacheEntry, now: float) -> float:
        raise NotImplementedError

    def held_version(self, page_id: int) -> Optional[int]:
        entry = self._cache.get(page_id)
        return None if entry is None else entry.version

    @property
    def used_bytes(self) -> int:
        return self._cache.used_bytes

    def check_invariants(self) -> None:
        self._cache.check_invariants()


class LRUPolicy(_AccessOnlyPolicy):
    """Least-recently-used: value = time of last access."""

    name = "lru"

    def _value(self, entry: CacheEntry, now: float) -> float:
        return now


class GDSPolicy(_AccessOnlyPolicy):
    """GreedyDual-Size (Cao & Irani 1997): ``V = L + c/s``.

    No frequency term; the inflation value L provides aging exactly as
    in GD* (GD* with beta → infinity degenerates to a frequency-less
    form close to GDS).
    """

    name = "gds"

    def __init__(self, capacity_bytes: int, cost: float = 1.0) -> None:
        super().__init__(capacity_bytes, cost)
        self.inflation = 0.0

    def _after_evictions(self, result) -> None:
        if result.last_value is not None:
            self.inflation = result.last_value

    def _value(self, entry: CacheEntry, now: float) -> float:
        return self.inflation + entry.cost / entry.size


class LFUDAPolicy(_AccessOnlyPolicy):
    """LFU with Dynamic Aging: ``V = L + f`` (size-blind frequency).

    The dynamic-aging term prevents formerly popular pages from
    occupying the cache forever, the classic failure of plain LFU.
    """

    name = "lfu-da"

    def __init__(self, capacity_bytes: int, cost: float = 1.0) -> None:
        super().__init__(capacity_bytes, cost)
        self.inflation = 0.0

    def _after_evictions(self, result) -> None:
        if result.last_value is not None:
            self.inflation = result.last_value

    def _value(self, entry: CacheEntry, now: float) -> float:
        return self.inflation + entry.access_count

"""SUB — push-time placement from subscription counts only (§3.2).

When a page matching local subscriptions is published, SUB values it as

    V(p) = s(p) · c(p) / size(p)                       (eq. 2)

where ``s(p)`` is the number of matching subscriptions.  Pages already
cached with a lower value are *candidates*; if the candidates (plus
free space) cannot make room, the page is **not** stored and nothing is
evicted.  SUB is push-time-only: on a cache miss it fetches and
forwards the page without caching it, and page values never change
after placement (subscriptions are static).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.entry import CacheEntry, PUSH_MODULE
from repro.core._base import HeapCache
from repro.core.policy import (
    PUSH_REFRESHED,
    PUSH_SKIPPED,
    PUSH_STORED,
    REQUEST_HIT,
    REQUEST_MISS,
    REQUEST_STALE,
    Policy,
    PushOutcome,
    RequestOutcome,
)


class SubPolicy(Policy):
    """Subscription-driven push-time placement."""

    name = "sub"

    def __init__(
        self,
        capacity_bytes: int,
        cost: float = 1.0,
        refresh_on_push: bool = True,
    ) -> None:
        super().__init__(capacity_bytes, cost)
        self._cache = HeapCache(capacity_bytes)
        # Hot-path alias: both entry points probe the entry dict
        # directly (see SingleCacheCombinedPolicy).
        self._entries = self._cache.storage.entries_by_id
        #: Whether a pushed new version may replace the cache's own
        #: stale copy of the same page.  True (default) treats
        #: self-replacement as natural; False applies the paper's
        #: candidate rule literally ("pages whose values are LESS than
        #: the new page's") — the resident copy prices identically and
        #: can never be displaced, so it rots.  The two settings
        #: bracket the paper's SUB behaviour; see the
        #: ``ablation_sub_refresh`` benchmark.
        self.refresh_on_push = refresh_on_push

    # -- push time -------------------------------------------------------

    def on_publish(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> PushOutcome:
        existing = self._entries.get(page_id)
        stats = self.stats
        if existing is not None:
            if existing.version == version:
                return PUSH_SKIPPED
            if not self.refresh_on_push:
                stats.pages_pushed_rejected += 1
                return PUSH_SKIPPED
            existing.version = version
            existing.match_count = match_count
            self._cache.reprice(
                existing, match_count * existing.cost / existing.size
            )
            stats.pages_pushed_stored += 1
            stats.bytes_pushed += size
            return PUSH_REFRESHED

        # Value first, entry last: eq. 2 inlined (same operation order
        # as _formulas.sub_value), and the CacheEntry is built only once
        # the cheaper residents have made room.
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        value = match_count * self.cost / size
        result = self._cache.evict_cheaper_for(size, value)
        if not result.success:
            stats.pages_pushed_rejected += 1
            return PUSH_SKIPPED
        for evicted in result.evicted:
            self._note_eviction(evicted, "displaced")
        entry = CacheEntry(
            page_id=page_id,
            version=version,
            size=size,
            cost=self.cost,
            match_count=match_count,
            module=PUSH_MODULE,
            last_access_time=now,
        )
        self._cache.add(entry, value)
        stats.pages_pushed_stored += 1
        stats.bytes_pushed += size
        return PUSH_STORED

    # -- access time ----------------------------------------------------------

    def on_request(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> RequestOutcome:
        entry = self._entries.get(page_id)
        stats = self.stats
        bucket = int(now // 3600.0)
        stats.requests += 1
        breq = stats.bucketed_requests
        breq[bucket] = breq.get(bucket, 0) + 1
        if entry is not None:
            entry.access_count += 1
            entry.accessed_since_replacement = True
            entry.last_access_time = now
            if entry.version == version:
                stats.hits += 1
                stats.bytes_served_local += size
                bhits = stats.bucketed_hits
                bhits[bucket] = bhits.get(bucket, 0) + 1
                return REQUEST_HIT
            # Stale copy: the fresh version is fetched and forwarded,
            # but SUB performs no access-time placement (§3.2), so the
            # cached bytes are NOT updated; the copy stays stale.
            stats.stale_hits += 1
            stats.pages_fetched += 1
            stats.bytes_fetched += size
            return REQUEST_STALE
        # Push-time-only: forward without caching (§3.2).
        stats.pages_fetched += 1
        stats.bytes_fetched += size
        return REQUEST_MISS

    # -- introspection -----------------------------------------------------------

    def held_version(self, page_id: int) -> Optional[int]:
        entry = self._entries.get(page_id)
        return None if entry is None else entry.version

    @property
    def used_bytes(self) -> int:
        return self._cache.used_bytes

    def check_invariants(self) -> None:
        self._cache.check_invariants()

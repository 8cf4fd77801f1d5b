"""GD* — the access-based caching baseline (§3.1).

Greedy-Dual* (Jin & Bestavros 2001) generalizes GreedyDual-Size with a
frequency term and an aging mechanism: every page is valued

    V(p) = L + (f(p) · c(p) / s(p)) ^ (1/beta)

where ``L`` is an inflation value set to the value of the last evicted
page, so long-idle pages decay relative to fresh ones.  Following the
paper's implementation notes:

* reference counts are discarded on eviction (In-Cache LFU) — this is
  the ``retain_counts_on_eviction=False`` default; the ablation bench
  flips it;
* on a hit, ``f(p)`` increments and the page is re-valued with the
  *current* ``L``;
* on a miss the page is always admitted, evicting least-valuable pages
  until it fits (pages larger than the whole cache are served without
  caching).

GD* performs no push-time placement: :meth:`on_publish` is a no-op, so
the strategy generates no push traffic and its curves are flat across
pushing schemes (Fig. 7).
"""

from __future__ import annotations

from heapq import heappush
from typing import Dict, Optional

from repro.cache.entry import CacheEntry
from repro.cache.heap import _COMPACT_FLOOR
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


class GDStarPolicy(Policy):
    """The GD* replacement algorithm on one proxy cache."""

    name = "gdstar"
    uses_push = False

    # Fully slotted — same hot-path rationale as
    # SingleCacheCombinedPolicy.
    __slots__ = (
        "beta",
        "retain_counts_on_eviction",
        "inflation",
        "_cache",
        "_evicted_counts",
        "_inv_beta",
        "_entries",
        "_heap",
    )

    def __init__(
        self,
        capacity_bytes: int,
        cost: float = 1.0,
        beta: float = 2.0,
        retain_counts_on_eviction: bool = False,
    ) -> None:
        super().__init__(capacity_bytes, cost)
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.beta = float(beta)
        self.retain_counts_on_eviction = retain_counts_on_eviction
        self.inflation = 0.0
        self._cache = HeapCache(capacity_bytes)
        #: Reference counts kept across evictions (ablation mode only).
        self._evicted_counts: Dict[int, int] = {}
        # Hot-path aliases (see SingleCacheCombinedPolicy): direct entry
        # probes and heap pushes, plus the loop-invariant ``1/beta``.
        self._inv_beta = 1.0 / self.beta
        self._entries = self._cache.storage.entries_by_id
        self._heap = self._cache.heap

    # -- push time: nothing happens ------------------------------------------

    def on_publish(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> PushOutcome:
        """Pure caching ignores publications (the cached copy, if any,
        simply becomes stale and is detected at the next access)."""
        return PUSH_SKIPPED

    # -- access time --------------------------------------------------------

    def on_request(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> RequestOutcome:
        # Replay hot path: valuation, repricing and stats inlined; the
        # math reproduces _formulas.gdstar_value bit for bit.
        entry = self._entries.get(page_id)
        stats = self.stats
        bucket = int(now // 3600.0)
        stats.requests += 1
        breq = stats.bucketed_requests
        breq[bucket] = breq.get(bucket, 0) + 1
        if entry is not None:
            hit = entry.version == version
            if not hit:
                # Stale copy: fetch the fresh version, refresh in place.
                entry.version = version
            entry.access_count += 1
            entry.accessed_since_replacement = True
            entry.last_access_time = now
            base = entry.access_count * entry.cost / entry.size
            if base <= 0.0:
                value = self.inflation
            else:
                value = self.inflation + base ** self._inv_beta
            entry.value = value
            # Inlined AddressableHeap.push — see SingleCacheCombinedPolicy.
            heap = self._heap
            sequence = heap._sequence + 1
            heap._sequence = sequence
            record = (value, sequence, page_id)
            live = heap._live
            live[page_id] = record
            backing = heap._heap
            heappush(backing, record)
            backing_size = len(backing)
            if backing_size >= _COMPACT_FLOOR and backing_size > 2 * len(live):
                heap.compact()
            if hit:
                stats.hits += 1
                stats.bytes_served_local += size
                bhits = stats.bucketed_hits
                bhits[bucket] = bhits.get(bucket, 0) + 1
                return REQUEST_HIT
            stats.stale_hits += 1
            stats.pages_fetched += 1
            stats.bytes_fetched += size
            return REQUEST_STALE

        stats.pages_fetched += 1
        stats.bytes_fetched += size
        if self._admit(page_id, version, size, now):
            return REQUEST_MISS_CACHED
        return REQUEST_MISS

    def _admit(self, page_id: int, version: int, size: int, now: float) -> bool:
        """Unconditional GD* placement of a just-fetched page."""
        result = self._cache.evict_for(size)
        if not result.success:
            return False
        for evicted in result.evicted:
            self._note_eviction(evicted)
            if self.retain_counts_on_eviction:
                self._evicted_counts[evicted.page_id] = evicted.access_count
        if result.last_value is not None:
            self.inflation = result.last_value
        entry = CacheEntry(
            page_id=page_id,
            version=version,
            size=size,
            cost=self.cost,
            access_count=1 + self._evicted_counts.pop(page_id, 0),
            last_access_time=now,
        )
        # Valued after the evictions, against the advanced L.
        base = entry.access_count * entry.cost / size
        if base <= 0.0:
            value = self.inflation
        else:
            value = self.inflation + base ** self._inv_beta
        self._cache.add(entry, value)
        return True

    def drop_contents(self) -> None:
        """Cold restart: contents, inflation and retained counts are
        all in-memory state and do not survive."""
        self._cache.clear()
        self.inflation = 0.0
        self._evicted_counts.clear()

    # -- introspection -----------------------------------------------------------

    def held_version(self, page_id: int) -> Optional[int]:
        entry = self._entries.get(page_id)
        return None if entry is None else entry.version

    @property
    def used_bytes(self) -> int:
        return self._cache.used_bytes

    def check_invariants(self) -> None:
        self._cache.check_invariants()

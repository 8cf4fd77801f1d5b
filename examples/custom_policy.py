#!/usr/bin/env python
"""Extending the library with a custom content distribution strategy.

Implements "SUB-LRU": push-time placement by subscription density (like
SUB) combined with plain LRU at access time, registers it under a new
name, and benchmarks it against the paper's strategies on the same
trace — about 60 lines for a complete new strategy.

Run:  python examples/custom_policy.py
"""

from repro import SimulationConfig, make_trace, run_simulation
from repro.cache.entry import CacheEntry, ACCESS_MODULE, PUSH_MODULE
from repro.core._base import HeapCache
from repro.core.policy import Policy, PushOutcome, RequestOutcome
from repro.core.registry import register_strategy


class SubLRUPolicy(Policy):
    """SUB-valued pushes, LRU-valued accesses, one shared cache."""

    name = "sub-lru"

    def __init__(self, capacity_bytes: int, cost: float = 1.0) -> None:
        super().__init__(capacity_bytes, cost)
        self._cache = HeapCache(capacity_bytes)

    def _entry_value(self, entry: CacheEntry, now: float) -> float:
        if entry.access_count == 0:
            # Never-read pushed pages rank by subscription density,
            # scaled to compete with recency timestamps (eq. 2).
            return entry.match_count * entry.cost / entry.size
        return now  # LRU: most recent access wins

    def on_publish(self, page_id, version, size, match_count, now):
        existing = self._cache.get(page_id)
        if existing is not None:
            if existing.version == version:
                return PushOutcome(stored=False)
            existing.version = version
            existing.match_count = match_count
            self.stats.record_push(stored=True, size=size, transferred=True)
            return PushOutcome(stored=True, refreshed=True)
        entry = CacheEntry(
            page_id=page_id, version=version, size=size, cost=self.cost,
            match_count=match_count, module=PUSH_MODULE, last_access_time=now,
        )
        value = self._entry_value(entry, now)
        result = self._cache.evict_cheaper_for(size, threshold=value)
        if not result.success:
            self.stats.record_push(stored=False, size=size, transferred=False)
            return PushOutcome(stored=False)
        for evicted in result.evicted:
            self.stats.record_eviction(evicted.size)
        self._cache.add(entry, value)
        self.stats.record_push(stored=True, size=size, transferred=True)
        return PushOutcome(stored=True)

    def on_request(self, page_id, version, size, match_count, now):
        entry = self._cache.get(page_id)
        if entry is not None:
            stale = entry.version != version
            entry.version = version
            entry.record_access(now)
            self._cache.reprice(entry, self._entry_value(entry, now))
            self._record_request(hit=not stale, size=size, now=now, stale=stale)
            return RequestOutcome(hit=not stale, stale=stale, cached_after=True)
        self._record_request(hit=False, size=size, now=now)
        result = self._cache.evict_for(size)
        if not result.success:
            return RequestOutcome(hit=False, cached_after=False)
        for evicted in result.evicted:
            self.stats.record_eviction(evicted.size)
        entry = CacheEntry(
            page_id=page_id, version=version, size=size, cost=self.cost,
            match_count=match_count, access_count=1, module=ACCESS_MODULE,
            last_access_time=now,
        )
        self._cache.add(entry, self._entry_value(entry, now))
        return RequestOutcome(hit=False, cached_after=True)

    def held_version(self, page_id):
        entry = self._cache.get(page_id)
        return None if entry is None else entry.version

    @property
    def used_bytes(self):
        return self._cache.used_bytes

    def check_invariants(self):
        self._cache.check_invariants()


def main() -> None:
    register_strategy("sub-lru", SubLRUPolicy)

    trace = make_trace("news", scale=0.05, seed=7)
    print(f"Comparing strategies on {trace.request_count} requests:\n")
    for strategy in ("gdstar", "sub", "sg2", "sub-lru"):
        result = run_simulation(
            trace, SimulationConfig(strategy=strategy, capacity_fraction=0.05)
        )
        print(result.summary())


if __name__ == "__main__":
    main()

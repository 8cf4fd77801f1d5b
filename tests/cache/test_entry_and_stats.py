"""Tests for CacheEntry and CacheStats.

A policy bumps only the push and eviction counters; the request
counters are the simulator's, so they are read after a replay
(``replay_one_proxy``)."""

import pytest

from repro.cache.entry import ACCESS_MODULE, PUSH_MODULE, CacheEntry
from repro.cache.stats import CacheStats


def test_entry_validation():
    with pytest.raises(ValueError):
        CacheEntry(page_id=1, version=0, size=0, cost=1.0)
    with pytest.raises(ValueError):
        CacheEntry(page_id=1, version=0, size=10, cost=0.0)
    with pytest.raises(ValueError):
        CacheEntry(page_id=1, version=0, size=10, cost=1.0, module="bogus")


def test_entry_record_access():
    entry = CacheEntry(page_id=1, version=0, size=10, cost=1.0)
    entry.record_access()
    assert entry.access_count == 1


def test_module_labels():
    push = CacheEntry(page_id=1, version=0, size=1, cost=1.0, module=PUSH_MODULE)
    access = CacheEntry(page_id=2, version=0, size=1, cost=1.0, module=ACCESS_MODULE)
    assert push.module == "push"
    assert access.module == "access"


def test_stats_hit_ratio(replay_one_proxy):
    assert CacheStats().hit_ratio == 0.0
    stats = replay_one_proxy([(0.0, 0)], [(1.0, 0), (2.0, 0)], sizes=[10])  # miss, hit
    assert stats.requests == 2
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.hit_ratio == 0.5


def test_stats_bytes_accounting(replay_one_proxy):
    stats = replay_one_proxy(
        [(0.0, 0), (0.0, 1)], [(1.0, 0), (2.0, 0), (3600.0, 1)], sizes=[100, 50]
    )  # miss, hit, miss
    assert stats.bytes_served_local == 100
    assert stats.bytes_fetched == 150
    assert stats.pages_fetched == 2


def test_stats_stale_counted_as_miss(replay_one_proxy):
    # GD* pushes nothing, so the copy cached at t=1 is stale at t=3.
    stats = replay_one_proxy([(0.0, 0), (2.0, 0)], [(1.0, 0), (3.0, 0)], sizes=[10])
    assert stats.stale_hits == 1
    assert stats.misses == 2 and stats.hits == 0


def test_stats_push_accounting():
    stats = CacheStats()
    stats.record_push(stored=True, size=100, transferred=True)
    stats.record_push(stored=False, size=200, transferred=False)
    stats.record_push(stored=False, size=300, transferred=True)  # always-pushing waste
    assert stats.pages_pushed_stored == 1
    assert stats.pages_pushed_rejected == 2
    assert stats.bytes_pushed == 400


def test_stats_bucketing(replay_one_proxy):
    hour = 3600.0
    stats = replay_one_proxy(
        [(0.0, 0)], [(3 * hour, 0), (4 * hour - 1.0, 0), (5 * hour, 0)], sizes=[1]
    )  # miss, hit in hour 3; hit in hour 5
    assert list(stats.bucketed_requests.items()) == [(3, 2), (5, 1)]
    assert list(stats.bucketed_hits.items()) == [(3, 1), (5, 1)]


def test_stats_eviction_accounting():
    stats = CacheStats()
    stats.record_eviction(size=64)
    stats.record_eviction(size=36)
    assert stats.evictions == 2
    assert stats.bytes_evicted == 100

"""Tests for CacheEntry and CacheStats."""

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
    entry.accessed_since_replacement = False
    entry.record_access(at=42.0)
    assert entry.access_count == 1
    assert entry.accessed_since_replacement
    assert entry.last_access_time == 42.0


def test_module_labels():
    push = CacheEntry(page_id=1, version=0, size=1, cost=1.0, module=PUSH_MODULE)
    access = CacheEntry(page_id=2, version=0, size=1, cost=1.0, module=ACCESS_MODULE)
    assert push.module == "push"
    assert access.module == "access"


def test_stats_hit_ratio():
    stats = CacheStats()
    assert stats.hit_ratio == 0.0
    stats.record_request(hit=True, size=10, bucket=0)
    stats.record_request(hit=False, size=10, bucket=0)
    assert stats.requests == 2
    assert stats.hits == 1
    assert stats.misses == 1
    assert stats.hit_ratio == 0.5


def test_stats_bytes_accounting():
    stats = CacheStats()
    stats.record_request(hit=True, size=100, bucket=0)
    stats.record_request(hit=False, size=50, bucket=1)
    assert stats.bytes_served_local == 100
    assert stats.bytes_fetched == 50
    assert stats.pages_fetched == 1


def test_stats_stale_counted_as_miss():
    stats = CacheStats()
    stats.record_request(hit=False, size=10, bucket=0, stale=True)
    assert stats.stale_hits == 1
    assert stats.misses == 1


def test_stats_push_accounting():
    stats = CacheStats()
    stats.record_push(stored=True, size=100, transferred=True)
    stats.record_push(stored=False, size=200, transferred=False)
    stats.record_push(stored=False, size=300, transferred=True)  # always-pushing waste
    assert stats.pages_pushed_stored == 1
    assert stats.pages_pushed_rejected == 2
    assert stats.bytes_pushed == 400


def test_stats_bucketing():
    stats = CacheStats()
    stats.record_request(hit=True, size=1, bucket=3)
    stats.record_request(hit=False, size=1, bucket=3)
    stats.record_request(hit=True, size=1, bucket=5)
    assert stats.bucketed_requests == {3: 2, 5: 1}
    assert stats.bucketed_hits == {3: 1, 5: 1}


def test_stats_eviction_accounting():
    stats = CacheStats()
    stats.record_eviction(size=64)
    stats.record_eviction(size=36)
    assert stats.evictions == 2
    assert stats.bytes_evicted == 100

"""Tests for the shared HeapCache eviction mechanics."""

import pytest

from repro.cache.entry import CacheEntry
from repro.core._base import HeapCache


def entry(page_id, size, cost=1.0):
    return CacheEntry(page_id=page_id, version=0, size=size, cost=cost)


def filled_cache():
    cache = HeapCache(300)
    cache.add(entry(1, 100), 1.0)
    cache.add(entry(2, 100), 2.0)
    cache.add(entry(3, 100), 3.0)
    return cache


def test_add_and_lookup():
    cache = HeapCache(200)
    cache.add(entry(1, 50), 5.0)
    assert 1 in cache
    assert len(cache) == 1
    assert cache.get(1).value == 5.0
    assert cache.used_bytes == 50
    assert cache.storage.free_bytes == 150


def test_unconditional_eviction_in_value_order():
    cache = filled_cache()
    result = cache.evict_for(150)
    assert result.success
    assert [e.page_id for e in result.evicted] == [1, 2]
    assert result.last_value == 2.0
    assert cache.used_bytes == 100


def test_unconditional_eviction_noop_when_room():
    cache = HeapCache(300)
    cache.add(entry(1, 100), 1.0)
    result = cache.evict_for(100)
    assert result.success
    assert list(result.evicted) == []
    assert result.last_value is None


def test_unconditional_eviction_fails_for_oversize():
    cache = filled_cache()
    result = cache.evict_for(301)
    assert not result.success
    assert len(cache) == 3  # nothing evicted


def test_conditional_eviction_respects_threshold():
    cache = filled_cache()
    # threshold 2.5: pages 1 and 2 are candidates, page 3 is not.
    result = cache.evict_cheaper_for(150, threshold=2.5)
    assert result.success
    assert [e.page_id for e in result.evicted] == [1, 2]
    assert 3 in cache


def test_conditional_eviction_all_or_nothing_rollback():
    cache = filled_cache()
    # threshold 1.5: only page 1 (100 bytes) is a candidate — not
    # enough for 250 bytes, so nothing may be evicted.
    result = cache.evict_cheaper_for(250, threshold=1.5)
    assert not result.success
    assert len(cache) == 3
    cache.check_invariants()
    # the rolled-back entry is still evictable afterwards
    retry = cache.evict_cheaper_for(100, threshold=1.5)
    assert retry.success
    assert [e.page_id for e in retry.evicted] == [1]


def test_conditional_eviction_equal_value_not_candidate():
    cache = HeapCache(100)
    cache.add(entry(1, 100), 2.0)
    result = cache.evict_cheaper_for(100, threshold=2.0)
    assert not result.success  # strictly-less rule


def test_conditional_eviction_oversize_fails_fast():
    cache = filled_cache()
    result = cache.evict_cheaper_for(400, threshold=99.0)
    assert not result.success
    assert len(cache) == 3


def test_reprice_changes_eviction_order():
    cache = filled_cache()
    cache.reprice(cache.get(1), 10.0)
    result = cache.evict_for(150)
    assert [e.page_id for e in result.evicted] == [2, 3]


def test_remove_does_not_count_as_eviction():
    cache = filled_cache()
    removed = cache.remove(2)
    assert removed.page_id == 2
    assert 2 not in cache
    cache.check_invariants()


def test_invariant_detection():
    cache = filled_cache()
    cache.heap.discard(1)  # simulate drift
    with pytest.raises(AssertionError):
        cache.check_invariants()

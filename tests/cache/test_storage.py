"""Tests for byte-accounted cache storage."""

import pytest

from repro.cache.entry import CacheEntry
from repro.cache.storage import CacheStorage


def entry(page_id, size, cost=1.0):
    return CacheEntry(page_id=page_id, version=0, size=size, cost=cost)


def test_empty_storage():
    storage = CacheStorage(100)
    assert len(storage) == 0
    assert storage.used_bytes == 0
    assert storage.free_bytes == 100


def test_add_accounts_bytes():
    storage = CacheStorage(100)
    storage.add(entry(1, 30))
    storage.add(entry(2, 50))
    assert storage.used_bytes == 80
    assert storage.free_bytes == 20
    assert 1 in storage and 2 in storage


def test_add_over_capacity_rejected():
    storage = CacheStorage(100)
    storage.add(entry(1, 90))
    with pytest.raises(ValueError):
        storage.add(entry(2, 20))
    assert storage.used_bytes == 90


def test_duplicate_page_rejected():
    storage = CacheStorage(100)
    storage.add(entry(1, 10))
    with pytest.raises(ValueError):
        storage.add(entry(1, 10))


def test_remove_returns_entry_and_frees_bytes():
    storage = CacheStorage(100)
    storage.add(entry(1, 40))
    removed = storage.remove(1)
    assert removed.page_id == 1
    assert storage.used_bytes == 0
    assert 1 not in storage


def test_remove_missing_raises():
    storage = CacheStorage(100)
    with pytest.raises(KeyError):
        storage.remove(99)


def test_clear():
    storage = CacheStorage(100)
    storage.add(entry(1, 10))
    storage.clear()
    assert len(storage) == 0
    assert storage.used_bytes == 0


def test_resize_grow_and_shrink():
    storage = CacheStorage(100)
    storage.add(entry(1, 50))
    storage.resize(200)
    assert storage.capacity_bytes == 200
    storage.resize(50)
    assert storage.capacity_bytes == 50
    with pytest.raises(ValueError):
        storage.resize(49)


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        CacheStorage(-1)


def test_check_invariants_detects_drift():
    storage = CacheStorage(100)
    storage.add(entry(1, 10))
    storage.check_invariants()
    storage._used_bytes = 999  # simulate corruption
    with pytest.raises(AssertionError):
        storage.check_invariants()


def test_entries_iteration():
    storage = CacheStorage(100)
    storage.add(entry(1, 10))
    storage.add(entry(2, 20))
    assert {e.page_id for e in storage.entries()} == {1, 2}


def test_get_returns_entry_or_none():
    storage = CacheStorage(100)
    stored = entry(1, 10)
    storage.add(stored)
    assert storage.get(1) is stored
    assert storage.get(2) is None

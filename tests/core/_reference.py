"""Reference eviction loops: the pre-PR-13 bodies, kept as test oracles.

Until PR 13 the conditional pop-and-rollback loop existed twice in
``src/`` (``HeapCache.evict_cheaper_for`` and a hand copy over DM's
push heap) next to the unconditional ``HeapCache.evict_for``, each
stepping the heap through its public ``min_priority`` / ``pop`` /
``push`` methods.  ``AddressableHeap.pop_cheaper`` replaced all three;
the old bodies live on here, verbatim apart from taking their
collaborators as arguments, so ``test_pop_cheaper_reference`` can
assert the fused primitive reproduces them — pop order, re-push order
and the one sequence increment per rolled-back record included.

Each function returns ``(success, evicted_entries, last_value)``.
"""

from typing import List, Optional, Tuple

from repro.cache.entry import CacheEntry
from repro.cache.heap import AddressableHeap
from repro.cache.storage import CacheStorage

Outcome = Tuple[bool, List[CacheEntry], Optional[float]]


def evict_for(storage: CacheStorage, heap: AddressableHeap, size: int) -> Outcome:
    """Unconditional GD*-style eviction (old ``HeapCache.evict_for``)."""
    if size <= storage.free_bytes:
        return True, [], None
    if size > storage.capacity_bytes:
        return False, [], None
    evicted: List[CacheEntry] = []
    last_value: Optional[float] = None
    while storage.free_bytes < size:
        page_id, value = heap.pop()
        entry = storage.remove(page_id)
        evicted.append(entry)
        last_value = value
    return True, evicted, last_value


def evict_cheaper_for(
    storage: CacheStorage, heap: AddressableHeap, size: int, threshold: float
) -> Outcome:
    """All-or-nothing conditional eviction (old
    ``HeapCache.evict_cheaper_for``)."""
    capacity = storage.capacity_bytes
    free = capacity - storage.used_bytes
    if size <= free:
        return True, [], None
    if size > capacity:
        return False, [], None

    entries = storage.entries_by_id
    popped: List[Tuple[int, float]] = []
    freed = 0
    needed = size - free
    while freed < needed:
        minimum = heap.min_priority()
        if minimum is None or minimum >= threshold:
            # Not enough cheap pages: roll back.
            for page_id, value in popped:
                heap.push(page_id, value)
            return False, [], None
        page_id, value = heap.pop()
        popped.append((page_id, value))
        freed += entries[page_id].size

    evicted = []
    last_value: Optional[float] = None
    for page_id, value in popped:
        evicted.append(storage.remove(page_id))
        last_value = value
    return True, evicted, last_value


def evict_cheaper_by_push_value(
    storage: CacheStorage,
    push_heap: AddressableHeap,
    access_heap: AddressableHeap,
    size: int,
    threshold: float,
) -> Outcome:
    """SUB's conditional eviction over DM's push heap (old
    ``DualMethodsPolicy._evict_cheaper_by_push_value``)."""
    if size <= storage.free_bytes:
        return True, [], None
    if size > storage.capacity_bytes:
        return False, [], None
    popped: List[Tuple[int, float]] = []
    freed = 0
    needed = size - storage.free_bytes
    while freed < needed:
        minimum = push_heap.min_priority()
        if minimum is None or minimum >= threshold:
            for page_id, value in popped:
                push_heap.push(page_id, value)
            return False, [], None
        page_id, value = push_heap.pop()
        popped.append((page_id, value))
        freed += storage.get(page_id).size
    evicted = []
    last_value: Optional[float] = None
    for page_id, value in popped:
        access_heap.discard(page_id)
        evicted.append(storage.remove(page_id))
        last_value = value
    return True, evicted, last_value

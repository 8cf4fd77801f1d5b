"""Shared eviction mechanics for heap-ordered caches.

:class:`HeapCache` bundles a :class:`~repro.cache.storage.CacheStorage`
with an :class:`~repro.cache.heap.AddressableHeap` keyed by page value
and implements the two eviction disciplines the strategies need:

* *unconditional* (GD*, §3.1): evict least-valuable pages until the new
  page fits — the new page is always admitted;
* *conditional* (SUB and the single-cache combined schemes, §3.2–3.3):
  only pages **cheaper than the incoming page** are candidates; if the
  candidates (plus free space) cannot make room, nothing is evicted and
  the page is rejected.

Both return the value of the last evicted page so GD*-framework callers
can maintain the inflation value ``L``, and both are one loop:
:meth:`~repro.cache.heap.AddressableHeap.pop_cheaper` decides on the
heap alone (skim, peek, pop while cheaper, roll back on failure) and
``HeapCache`` removes the chosen pages from storage afterwards.  A
rejected attempt therefore never touches storage, and callers price the
page and ask here *before* building its ``CacheEntry`` — most attempts
at the paper's scale are rejections (see docs/architecture.md,
"Placement hot path").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cache.entry import CacheEntry
from repro.cache.heap import AddressableHeap
from repro.cache.storage import CacheStorage


@dataclass
class EvictionResult:
    """Outcome of an eviction round.

    Attributes:
        success: enough room was (or already was) available.
        evicted: entries removed, in eviction order.
        last_value: value of the final evicted entry (None if none).
    """

    success: bool
    evicted: Sequence[CacheEntry]
    last_value: Optional[float]


#: Interned no-eviction outcomes.  Placement attempts resolve to one of
#: these far more often than they evict (the page fits, or nothing
#: cheap enough exists), and the replay hot path makes one attempt per
#: miss — sharing the two empty results avoids a dataclass construction
#: per event.  ``evicted`` is an (immutable) empty tuple: callers only
#: iterate it.
_FITS = EvictionResult(success=True, evicted=(), last_value=None)
_REJECTED = EvictionResult(success=False, evicted=(), last_value=None)


class HeapCache:
    """Byte-accounted storage plus a value-ordered eviction heap."""

    __slots__ = ("storage", "heap", "_entries")

    def __init__(self, capacity_bytes: int) -> None:
        self.storage = CacheStorage(capacity_bytes)
        self.heap = AddressableHeap()
        self._entries = self.storage.entries_by_id

    # -- delegation -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.storage)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self.storage

    def get(self, page_id: int) -> Optional[CacheEntry]:
        return self.storage.get(page_id)

    @property
    def used_bytes(self) -> int:
        return self.storage.used_bytes

    @property
    def free_bytes(self) -> int:
        return self.storage.free_bytes

    @property
    def capacity_bytes(self) -> int:
        return self.storage.capacity_bytes

    # -- mutation -----------------------------------------------------------

    def add(self, entry: CacheEntry, value: float) -> None:
        """Insert ``entry`` with ``value``; room must already exist."""
        entry.value = value
        self.storage.add(entry)
        self.heap.push(entry.page_id, value)

    def reprice(self, entry: CacheEntry, value: float) -> None:
        """Update the value of a cached entry (e.g. after a hit).

        Dead records from hit-heavy repricing are bounded by the heap's
        own auto-compaction in ``push`` (backing list <= 2x live once it
        crosses the compaction floor), so no extra sweep is needed here.
        """
        entry.value = value
        self.heap.push(entry.page_id, value)

    def remove(self, page_id: int) -> CacheEntry:
        """Remove an entry without counting it as an eviction."""
        self.heap.discard(page_id)
        return self.storage.remove(page_id)

    def clear(self) -> None:
        """Drop every entry at once (cold restart, not an eviction)."""
        self.storage.clear()
        self.heap.clear()

    # -- eviction disciplines ----------------------------------------------

    def evict_cheaper_for(
        self, size: int, threshold: Optional[float] = None
    ) -> EvictionResult:
        """Conditional eviction: only entries with value < ``threshold``
        (``None``: every entry is a candidate).

        All-or-nothing: if the cheap entries plus existing free space
        cannot fit ``size`` bytes, no entry is evicted and the result is
        a failure.  The decision is :meth:`AddressableHeap.pop_cheaper`'s
        single pop-and-rollback loop — no O(n) scan of the cache per
        placement attempt, and one call below this one whatever the
        number of victims; storage is touched only once the heap has
        said yes, in pop order.

        Runs once per placement attempt (every cache miss under the
        gated policies), so the byte arithmetic reads the storage
        fields directly instead of going through the ``free_bytes``
        property.
        """
        storage = self.storage
        capacity = storage.capacity_bytes
        free = capacity - storage._used_bytes
        if size <= free:
            return _FITS
        if size > capacity:
            return _REJECTED
        popped = self.heap.pop_cheaper(size - free, threshold, self._entries)
        if popped is None:
            return _REJECTED
        remove = storage.remove
        evicted = [remove(page_id) for page_id, _value in popped]
        return EvictionResult(True, evicted, popped[-1][1])

    #: ``evict_for(size)`` — unconditional GD*-style eviction: make
    #: ``size`` bytes free, failing (and evicting nothing) only when
    #: ``size`` exceeds total capacity.  The same method with every
    #: entry a candidate; an alias, so the GD* miss path pays no hop.
    evict_for = evict_cheaper_for

    # -- integrity --------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify storage/heap agreement (tests and debug)."""
        self.storage.check_invariants()
        storage_ids = {entry.page_id for entry in self.storage.entries()}
        heap_ids = set(self.heap.keys())
        if storage_ids != heap_ids:
            raise AssertionError(
                f"storage/heap drift: only-storage={storage_ids - heap_ids} "
                f"only-heap={heap_ids - storage_ids}"
            )
        for entry in self.storage.entries():
            if self.heap.priority(entry.page_id) != entry.value:
                raise AssertionError(
                    f"value drift for page {entry.page_id}: "
                    f"heap={self.heap.priority(entry.page_id)} entry={entry.value}"
                )

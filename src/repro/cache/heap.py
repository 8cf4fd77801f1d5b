"""An addressable min-heap with lazy deletion.

Replacement policies repeatedly need "the least valuable cached page"
while page values change on every hit.  A plain ``heapq`` cannot update
priorities, so this heap keeps one *live* record per key and marks
superseded records dead; dead records are skipped (and discarded) when
they surface.  All operations are O(log n) amortized.

Ties on priority are broken by insertion sequence, which keeps eviction
order deterministic across runs.

Each key's live record is the very ``(priority, sequence, key)`` tuple
sitting in the backing list, stored once in ``_live``.  ``push`` then
costs a single dict store beyond the heapq insert (the tuple had to be
built for heapq anyway), the hot-path liveness test in ``_skim`` is one
dict probe plus an identity check, and ``compact`` rebuilds the backing
list straight from ``_live.values()`` with no tuple construction.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Hashable, List, Mapping, Optional, Tuple


#: Auto-compaction floor: backing lists shorter than this are never
#: rebuilt, so tiny heaps skip the bookkeeping entirely.
_COMPACT_FLOOR = 64


class AddressableHeap:
    """Min-heap mapping hashable keys to float priorities.

    The three backing fields are slotted: ``push`` runs once per
    replayed request.
    """

    __slots__ = ("_heap", "_live", "_sequence")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Hashable]] = []
        self._live: Dict[Hashable, Tuple[float, int, Hashable]] = {}
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._live

    def push(self, key: Hashable, priority: float) -> None:
        """Insert ``key`` or update its priority if already present.

        Every update leaves a dead record behind; once dead records
        outnumber live ones the backing list is rebuilt in place, so
        update-heavy workloads (long sweeps re-prioritising on every
        hit) keep the list at most ~2× the live population instead of
        growing without bound.
        """
        sequence = self._sequence + 1
        self._sequence = sequence
        record = (priority, sequence, key)
        self._live[key] = record
        heap = self._heap
        heappush(heap, record)
        heap_size = len(heap)
        if heap_size >= _COMPACT_FLOOR and heap_size > 2 * len(self._live):
            self.compact()

    #: ``update`` is an alias — push already overwrites.
    update = push

    def remove(self, key: Hashable) -> None:
        """Remove ``key``; raises KeyError if absent."""
        del self._live[key]

    def discard(self, key: Hashable) -> None:
        """Remove ``key`` if present."""
        self._live.pop(key, None)

    def clear(self) -> None:
        """Drop every key (and all dead heap records) at once."""
        self._heap.clear()
        self._live.clear()

    def priority(self, key: Hashable) -> float:
        """Current priority of ``key``."""
        return self._live[key][0]

    def _skim(self) -> None:
        """Drop dead records from the heap top."""
        heap = self._heap
        live = self._live
        while heap:
            record = heap[0]
            # The live record *is* the heap record, so identity alone
            # proves this record is the key's current one.
            if live.get(record[2]) is record:
                return
            heappop(heap)

    def peek(self) -> Tuple[Hashable, float]:
        """(key, priority) of the minimum without removing it."""
        self._skim()
        if not self._heap:
            raise IndexError("heap is empty")
        priority, _sequence, key = self._heap[0]
        return key, priority

    def pop(self) -> Tuple[Hashable, float]:
        """Remove and return the minimum (key, priority)."""
        self._skim()
        if not self._heap:
            raise IndexError("heap is empty")
        priority, _sequence, key = heappop(self._heap)
        del self._live[key]
        return key, priority

    def min_priority(self) -> Optional[float]:
        """Priority of the minimum, or None when empty."""
        self._skim()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop_cheaper(
        self, needed: int, threshold: Optional[float], entries: Mapping
    ) -> Optional[List[Tuple[Hashable, float]]]:
        """Pop minima until their sizes total ``needed``, all or nothing.

        The one conditional-eviction loop of the code base.  Records
        are popped cheapest first while their priority is strictly
        below ``threshold`` (``None``: unconditionally) until
        ``entries[key].size`` of the popped keys sums to at least
        ``needed``; the popped ``(key, priority)`` pairs are returned
        in pop order.  If the heap runs out of cheap-enough records
        first, every popped key is pushed back with its old priority
        and ``None`` is returned.

        The rollback re-pushes in pop order, each record taking a
        *fresh* sequence number, so rolled-back keys move behind every
        equal-priority key that stayed — tie order is part of the
        simulation's results, and this renumbering with it.  Only a
        reject whose very first probe finds nothing cheap enough
        leaves the heap as it was (dead records skimmed off the top
        aside).

        Skim, peek and pop run inline on the backing list; ``compact``
        rebuilds that list in place, so the alias held here survives a
        compaction triggered by a rollback push.
        """
        heap = self._heap
        live = self._live
        popped: List[Tuple[Hashable, float]] = []
        freed = 0
        while freed < needed:
            while heap:
                record = heap[0]
                if live.get(record[2]) is record:
                    break
                heappop(heap)
            if not heap or (threshold is not None and record[0] >= threshold):
                # Roll back: the same mutations as ``push``, per record.
                sequence = self._sequence
                for key, priority in popped:
                    sequence += 1
                    record = (priority, sequence, key)
                    live[key] = record
                    heappush(heap, record)
                    heap_size = len(heap)
                    if heap_size >= _COMPACT_FLOOR and heap_size > 2 * len(live):
                        self.compact()
                self._sequence = sequence
                return None
            heappop(heap)
            key = record[2]
            del live[key]
            popped.append((key, record[0]))
            freed += entries[key].size
        return popped

    def keys(self):
        """Live keys (arbitrary order)."""
        return self._live.keys()

    def items(self):
        """Live (key, priority) pairs (arbitrary order)."""
        return ((key, record[0]) for key, record in self._live.items())

    def compact(self) -> None:
        """Rebuild the backing list, dropping all dead records.

        Compaction never changes pop order: live records keep their
        ``(priority, sequence)`` sort keys, and heapify orders them
        exactly as lazy skimming would have.

        The rebuild is in place: the list object never changes
        identity, so an alias of it held across a ``push`` (the fused
        loops in :meth:`pop_cheaper` and the policies' inlined pushes)
        stays valid.  Never required for correctness.
        """
        heap = self._heap
        heap[:] = self._live.values()
        heapify(heap)

"""DM — Dual-Methods: one cache, two independent replacement methods (§3.3).

DM labels every cached page with *two* values and considers each value
only in the corresponding module:

* the **push module** runs SUB (eq. 2) over the whole cache — a new
  matched publication may evict any page whose SUB value is lower,
  under SUB's all-or-nothing candidate rule;
* the **access module** runs GD* (eq. 1) over the whole cache — a miss
  always admits the fetched page, evicting by GD* value.

Because both modules operate on the same storage, a page in hot use can
be evicted at push time when few subscriptions match it, and a freshly
pushed page with high predicted use can be evicted on a miss because it
has no access history yet — the interference the Dual-Cache variants
(§3.3, :mod:`repro.core.dual_caches`) were designed to remove.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.entry import CacheEntry, ACCESS_MODULE, PUSH_MODULE
from repro.cache.heap import AddressableHeap
from repro.cache.storage import CacheStorage
from repro.core.policy import (
    PUSH_REFRESHED,
    PUSH_SKIPPED,
    PUSH_STORED,
    REQUEST_HIT,
    REQUEST_MISS,
    REQUEST_MISS_CACHED,
    REQUEST_STALE,
    Policy,
    PushOutcome,
    RequestOutcome,
    check_beta,
)


class DualMethodsPolicy(Policy):
    """SUB at push time and GD* at access time on one shared cache."""

    name = "dm"

    def __init__(
        self, capacity_bytes: int, cost: float = 1.0, beta: float = 2.0
    ) -> None:
        super().__init__(capacity_bytes, cost)
        self.beta = check_beta(beta)
        self.inflation = 0.0
        self._storage = CacheStorage(capacity_bytes)
        self._push_heap = AddressableHeap()
        self._access_heap = AddressableHeap()
        # Hot-path aliases (see SingleCacheCombinedPolicy): direct
        # entry probes and the loop-invariant ``1/beta``.
        self._entries = self._storage.entries_by_id
        self._inv_beta = 1.0 / self.beta

    def _make_room(self, needed: int, threshold: Optional[float]) -> Optional[float]:
        """Evict ``needed`` bytes by one module's order, all or nothing.

        With a ``threshold`` (the incoming page's SUB value) the push
        module applies SUB's candidate rule over the push heap; with
        ``None`` the access module replaces unconditionally by GD*
        value.  Either way the victims leave both heaps.  Returns the
        last victim's value in the deciding heap, or ``None`` when the
        candidates cannot make room — nothing was evicted then.
        """
        if threshold is None:
            heap, other, cause = self._access_heap, self._push_heap, "capacity"
        else:
            heap, other, cause = self._push_heap, self._access_heap, "displaced"
        popped = heap.pop_cheaper(needed, threshold, self._entries)
        if popped is None:
            return None
        remove = self._storage.remove
        for page_id, _value in popped:
            other.discard(page_id)
            self._note_eviction(remove(page_id), cause)
        return popped[-1][1]

    def _insert(self, entry: CacheEntry, push_value: float) -> None:
        """Store ``entry`` under both methods' values (eqs. 2 and 1)."""
        self._storage.add(entry)
        self._push_heap.push(entry.page_id, push_value)
        base = entry.access_count * entry.cost / entry.size
        if base <= 0.0:
            access_value = self.inflation
        else:
            access_value = self.inflation + base ** self._inv_beta
        entry.value = access_value
        self._access_heap.push(entry.page_id, access_value)

    # -- push time ---------------------------------------------------------

    def on_publish(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> PushOutcome:
        existing = self._entries.get(page_id)
        stats = self.stats
        if existing is not None:
            if existing.version == version:
                return PUSH_SKIPPED
            # Self-refresh of the cache's own stale copy; the SUB-side
            # value is static so only the content changes.
            existing.version = version
            existing.match_count = match_count
            self._push_heap.push(
                page_id, match_count * existing.cost / existing.size
            )
            stats.pages_pushed_stored += 1
            stats.bytes_pushed += size
            return PUSH_REFRESHED

        # SUB's all-or-nothing conditional eviction over the push heap
        # (eq. 2 inlined, same operation order as paper_sim.sub_value).
        # Evictions made by the push module do not touch the GD*
        # inflation value — L belongs to the access module.
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        threshold = match_count * self.cost / size
        storage = self._storage
        free = storage.free_bytes
        if size > free and (
            size > storage.capacity_bytes
            or self._make_room(size - free, threshold) is None
        ):
            stats.pages_pushed_rejected += 1
            return PUSH_SKIPPED
        entry = CacheEntry(
            page_id=page_id,
            version=version,
            size=size,
            cost=self.cost,
            match_count=match_count,
            module=PUSH_MODULE,
        )
        self._insert(entry, threshold)
        stats.pages_pushed_stored += 1
        stats.bytes_pushed += size
        return PUSH_STORED

    # -- access time ----------------------------------------------------------

    def on_request(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> RequestOutcome:
        # Replay hot path: probe and valuation inlined; the math
        # reproduces paper_sim.gdstar_value bit for bit.
        entry = self._entries.get(page_id)
        if entry is not None:
            hit = entry.version == version
            if not hit:
                entry.version = version
            entry.access_count += 1
            base = entry.access_count * entry.cost / entry.size
            if base <= 0.0:
                value = self.inflation
            else:
                value = self.inflation + base ** self._inv_beta
            entry.value = value
            self._access_heap.push(page_id, value)
            return REQUEST_HIT if hit else REQUEST_STALE

        storage = self._storage
        free = storage.free_bytes
        if size > free:
            if size > storage.capacity_bytes:
                return REQUEST_MISS
            # A miss always admits: GD* replacement, and L advances to
            # the last victim's value.
            self.inflation = self._make_room(size - free, None)
        entry = CacheEntry(
            page_id=page_id,
            version=version,
            size=size,
            cost=self.cost,
            match_count=match_count,
            access_count=1,
            module=ACCESS_MODULE,
        )
        self._insert(entry, match_count * self.cost / size)
        return REQUEST_MISS_CACHED

    def drop_contents(self) -> None:
        self._storage.clear()
        self._push_heap.clear()
        self._access_heap.clear()
        self.inflation = 0.0

    # -- introspection -----------------------------------------------------------

    def held_version(self, page_id: int) -> Optional[int]:
        entry = self._entries.get(page_id)
        return None if entry is None else entry.version

    @property
    def used_bytes(self) -> int:
        return self._storage.used_bytes

    def check_invariants(self) -> None:
        self._storage.check_invariants()
        storage_ids = {entry.page_id for entry in self._storage.entries()}
        for heap_name, heap in (("push", self._push_heap), ("access", self._access_heap)):
            heap_ids = set(heap.keys())
            if heap_ids != storage_ids:
                raise AssertionError(
                    f"{heap_name} heap drift: only-storage={storage_ids - heap_ids} "
                    f"only-heap={heap_ids - storage_ids}"
                )

"""Capacity-limited cache substrate.

The proxy servers of the paper hold page content in a byte-capacity
cache; every placement and replacement strategy in :mod:`repro.core`
runs on top of this substrate:

* :class:`~repro.cache.entry.CacheEntry` — a cached page version plus
  the mutable bookkeeping fields the policies need (access counts,
  matched-subscription counts, current value, owning module label);
* :class:`~repro.cache.heap.AddressableHeap` — a min-heap with O(log n)
  decrease/increase-key via lazy deletion, used to find the least
  valuable page during evictions;
* :class:`~repro.cache.storage.CacheStorage` — the byte-accounted store
  itself;
* :class:`~repro.cache.stats.CacheStats` — hit/miss/byte counters.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.cache.entry import CacheEntry, ACCESS_MODULE, PUSH_MODULE
    from repro.cache.heap import AddressableHeap
    from repro.cache.storage import CacheStorage
    from repro.cache.stats import CacheStats

__all__ = [
    "CacheEntry",
    "AddressableHeap",
    "CacheStorage",
    "CacheStats",
    "ACCESS_MODULE",
    "PUSH_MODULE",
]

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "entry": ("CacheEntry", "ACCESS_MODULE", "PUSH_MODULE"),
    "heap": ("AddressableHeap",),
    "storage": ("CacheStorage",),
    "stats": ("CacheStats",),
})

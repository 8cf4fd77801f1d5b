"""SG1 / SG2 / SR — single cache, single replacement method (§3.3).

These strategies run both placement opportunities (push time and access
time) against one shared cache with one evaluation function:

* **SG1** — GD* with ``f = s + a`` (eq. 3): prediction plus history.
* **SG2** — GD* with ``f = s − a`` (eq. 4): estimated *remaining*
  references, assuming every subscriber reads a matched page once.
* **SR**  — ``V = (s − a)·c/size`` (eq. 5): pure remaining-demand
  frequency, no GD* aging.

Placement is value-gated at *both* opportunities ("whether to store a
page on a server is purely based on the value of the page"): a page is
stored only if the cached pages cheaper than it can free enough room;
on a cache miss the fetched page is forwarded to the user and discarded
when its value is not high enough to reside in the cache.

The access count ``a`` is **proxy-level and persistent**: the proxy
serves every local request (forwarding misses to the publisher), so it
observes the complete access history of a page whether or not the page
is currently cached.  This is what makes eq. 4's "difference between
subscriptions and past requests = future references" correct — with
in-cache-only counts, a fully-read page whose modified version is
re-published would come back with ``a = 0`` and its full subscription
count and be re-admitted forever, which collapses SG2/SR into SUB.
(GD*'s own frequency term keeps its In-Cache-LFU reset per §3.1; the
reset is specific to that baseline.)
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappush
from typing import Dict, Optional

from repro.cache.entry import CacheEntry, ACCESS_MODULE, PUSH_MODULE
from repro.cache.heap import _COMPACT_FLOOR
from repro.core._base import HeapCache
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
)

#: Evaluation modes and their registry names.
SG1 = "sg1"
SG2 = "sg2"
SR = "sr"
_MODES = (SG1, SG2, SR)


class SingleCacheCombinedPolicy(Policy):
    """Push-time + access-time placement with one evaluation function."""

    name = "single-cache"

    # Fully slotted: ``on_request`` reads half a dozen of these per
    # replayed event (the instance ``name`` override lands in the
    # ``__dict__`` slot inherited from Policy).
    __slots__ = (
        "mode",
        "beta",
        "inflation",
        "_cache",
        "_access_counts",
        "_inv_beta",
        "_entries",
        "_heap",
    )

    def __init__(
        self,
        capacity_bytes: int,
        cost: float = 1.0,
        mode: str = SG2,
        beta: float = 2.0,
    ) -> None:
        super().__init__(capacity_bytes, cost)
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if beta <= 0:
            raise ValueError(f"beta must be positive, got {beta}")
        self.mode = mode
        self.name = mode
        self.beta = float(beta)
        self.inflation = 0.0
        self._cache = HeapCache(capacity_bytes)
        #: Persistent per-page access history observed at this proxy.
        self._access_counts: Dict[int, int] = defaultdict(int)
        # Hot-path aliases: the request path runs once per replay event,
        # so it probes the entry dict and pushes to the heap directly
        # instead of going through the HeapCache wrappers.  ``1/beta``
        # is loop-invariant; precomputing it is bit-identical to the
        # ``base ** (1.0 / beta)`` in _formulas.gdstar_value.
        self._inv_beta = 1.0 / self.beta
        self._entries = self._cache.storage.entries_by_id
        self._heap = self._cache.heap

    # -- placement -----------------------------------------------------------

    def _gated_place(
        self,
        page_id: int,
        version: int,
        size: int,
        match_count: int,
        module: str,
        now: float,
    ) -> bool:
        """Value-gated placement shared by push and access time.

        Runs once per miss and per push of an uncached page, and most
        of those attempts are rejections — so the page is priced from
        the scalars first and its :class:`CacheEntry` is built only
        once room is secured.  The valuation is inlined (bit-identical
        to ``_formulas.gdstar_value`` / ``sr_value``): the ``base`` term
        does not depend on the inflation value L, which lets the
        post-eviction re-valuation — kept so the stored value is
        consistent with the heap ordering the entry will live under —
        reuse it without recomputing the frequency.
        """
        if size <= 0:
            # CacheEntry would say so too, but only for stored pages.
            raise ValueError(f"entry size must be positive, got {size}")
        observed = self._access_counts[page_id]
        mode = self.mode
        if mode == SG1:
            frequency = match_count + observed
        else:
            frequency = match_count - observed
        base = frequency * self.cost / size
        if mode == SR:
            value = base
        elif base <= 0.0:
            value = self.inflation
        else:
            value = self.inflation + base ** self._inv_beta
        result = self._cache.evict_cheaper_for(size, value)
        if not result.success:
            return False
        for evicted in result.evicted:
            self._note_eviction(evicted)
        if mode != SR:
            if result.last_value is not None:
                self.inflation = result.last_value
            if base <= 0.0:
                value = self.inflation
            else:
                value = self.inflation + base ** self._inv_beta
        entry = CacheEntry(
            page_id=page_id,
            version=version,
            size=size,
            cost=self.cost,
            # In-cache accesses: a fetched page enters on its latest
            # one, a pushed page has had none yet.
            access_count=observed if module == ACCESS_MODULE else 0,
            match_count=match_count,
            module=module,
            last_access_time=now,
        )
        self._cache.add(entry, value)
        return True

    # -- push time -----------------------------------------------------------

    def on_publish(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> PushOutcome:
        existing = self._entries.get(page_id)
        stats = self.stats
        if existing is not None:
            if existing.version == version:
                return PUSH_SKIPPED
            # Self-refresh: the new version replaces the cache's own
            # stale copy (for the GD*-framework modes this also follows
            # from the candidate rule — L has advanced since the entry
            # was last valued, so the incoming version strictly
            # out-prices the resident copy).  The entry keeps its last
            # access-time valuation: a push is not an access, and
            # re-inflating here would let frequently-updated but
            # no-longer-read pages evade eviction forever.
            existing.version = version
            existing.match_count = match_count
            stats.pages_pushed_stored += 1
            stats.bytes_pushed += size
            return PUSH_REFRESHED

        if self._gated_place(page_id, version, size, match_count, PUSH_MODULE, now):
            stats.pages_pushed_stored += 1
            stats.bytes_pushed += size
            return PUSH_STORED
        stats.pages_pushed_rejected += 1
        return PUSH_SKIPPED

    # -- access time -------------------------------------------------------------

    def on_request(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> RequestOutcome:
        # The replay hot path: one call per request event.  Entry
        # lookup, valuation, repricing and stats are all inlined — the
        # math reproduces _formulas.gdstar_value / sr_value bit for bit
        # (same operation order, same clamp), specialised by mode.
        counts = self._access_counts
        observed = counts[page_id] + 1
        counts[page_id] = observed
        entry = self._entries.get(page_id)
        stats = self.stats
        bucket = int(now // 3600.0)
        stats.requests += 1
        breq = stats.bucketed_requests
        breq[bucket] = breq.get(bucket, 0) + 1
        if entry is not None:
            hit = entry.version == version
            if not hit:
                entry.version = version
            entry.access_count += 1
            entry.accessed_since_replacement = True
            entry.last_access_time = now
            mode = self.mode
            if mode == SG1:
                frequency = entry.match_count + observed
            else:
                frequency = entry.match_count - observed
            base = frequency * self.cost / entry.size
            if mode == SR:
                value = base
            elif base <= 0.0:
                value = self.inflation
            else:
                value = self.inflation + base ** self._inv_beta
            entry.value = value
            # Inlined AddressableHeap.push — the hottest line of the
            # replay (one repricing per request).  The mutations mirror
            # push exactly, auto-compaction bound included; profiled
            # runs time these pushes under policy.on_request instead
            # of heap.push.
            heap = self._heap
            sequence = heap._sequence + 1
            heap._sequence = sequence
            record = (value, sequence, page_id)
            live = heap._live
            live[page_id] = record
            backing = heap._heap
            heappush(backing, record)
            backing_size = len(backing)
            if backing_size >= _COMPACT_FLOOR and backing_size > 2 * len(live):
                heap.compact()
            if hit:
                stats.hits += 1
                stats.bytes_served_local += size
                bhits = stats.bucketed_hits
                bhits[bucket] = bhits.get(bucket, 0) + 1
                return REQUEST_HIT
            stats.stale_hits += 1
            stats.pages_fetched += 1
            stats.bytes_fetched += size
            return REQUEST_STALE

        stats.pages_fetched += 1
        stats.bytes_fetched += size
        if self._gated_place(page_id, version, size, match_count, ACCESS_MODULE, now):
            return REQUEST_MISS_CACHED
        return REQUEST_MISS

    def drop_contents(self) -> None:
        self._cache.clear()
        self.inflation = 0.0

    # -- introspection -----------------------------------------------------------

    def held_version(self, page_id: int) -> Optional[int]:
        entry = self._entries.get(page_id)
        return None if entry is None else entry.version

    @property
    def used_bytes(self) -> int:
        return self._cache.used_bytes

    def check_invariants(self) -> None:
        self._cache.check_invariants()

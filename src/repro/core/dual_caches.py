"""Dual-cache strategies: DC-FP, DC-AP and DC-LAP (§3.3).

The cache on a proxy is divided into a **Push-Cache (PC)** managed by
SUB and an **Access-Cache (AC)** managed by GD*, so that the two
placement modules never evict each other's pages directly (the
interference problem of Dual-Methods).

* **DC-FP** — fixed partition (50 %/50 % in the paper's experiments).
  A PC page is *moved* into AC on its first access, which may trigger a
  GD* replacement in AC.
* **DC-AP** — adaptive partition.  Storage is *relabeled* instead of
  moved: an accessed PC page's bytes simply become AC bytes (no AC
  replacement), and when SUB cannot place a pushed page, AC pages that
  have not been referenced since the last AC replacement donate their
  storage to PC (evicting those pages), per the paper's placing
  algorithm.
* **DC-LAP** — DC-AP with the PC fraction bounded (25 %–75 % in the
  paper); a repartition that would violate the bounds is not performed
  (pushes fail; accessed PC pages fall back to the DC-FP move).

GD*'s inflation value L belongs to the access module and advances only
on AC evictions.
"""

from __future__ import annotations

from heapq import heappop
from typing import List, Optional, Sequence, Tuple

from repro.cache.entry import CacheEntry, ACCESS_MODULE, PUSH_MODULE
from repro.core._base import HeapCache
from repro.core.policy import (
    PUSH_REFRESHED,
    PUSH_SKIPPED,
    PUSH_STORED,
    REQUEST_HIT,
    REQUEST_HIT_DROPPED,
    REQUEST_MISS,
    REQUEST_MISS_CACHED,
    REQUEST_STALE,
    REQUEST_STALE_DROPPED,
    Policy,
    PushOutcome,
    RequestOutcome,
    check_beta,
)


class _DualCacheBase(Policy):
    """Shared plumbing for the DC-* strategies."""

    def __init__(
        self,
        capacity_bytes: int,
        cost: float = 1.0,
        beta: float = 2.0,
        push_fraction: float = 0.5,
    ) -> None:
        super().__init__(capacity_bytes, cost)
        if not 0.0 <= push_fraction <= 1.0:
            raise ValueError(f"push_fraction must be in [0, 1], got {push_fraction}")
        self.beta = check_beta(beta)
        self.inflation = 0.0
        pc_bytes = int(capacity_bytes * push_fraction)
        self.pc = HeapCache(pc_bytes)
        self.ac = HeapCache(capacity_bytes - pc_bytes)
        # Hot-path aliases (see SingleCacheCombinedPolicy): direct
        # entry probes and the loop-invariant ``1/beta``.
        self._pc_entries = self.pc.storage.entries_by_id
        self._ac_entries = self.ac.storage.entries_by_id
        self._inv_beta = 1.0 / self.beta

    @property
    def push_fraction(self) -> float:
        """Current fraction of total storage assigned to the push cache."""
        if self.capacity_bytes == 0:
            return 0.0
        return self.pc.capacity_bytes / self.capacity_bytes

    # -- AC helpers ----------------------------------------------------------

    def _ac_evict_for(self, size: int) -> bool:
        """Unconditional GD* eviction in AC; updates L; True on success."""
        result = self.ac.evict_for(size)
        if not result.success:
            return False
        if result.evicted:
            for evicted in result.evicted:
                self._note_eviction(evicted)
            self.inflation = result.last_value
            self._on_ac_replacement(result.evicted)
        return True

    def _on_ac_replacement(self, evicted: Sequence[CacheEntry]) -> None:
        """Hook: DC-AP tracks replacement generations here."""

    def _ac_insert(self, entry: CacheEntry) -> None:
        """Add ``entry`` to AC (room secured) at its GD* value under the
        current L — eq. 1 inlined, same operation order as
        _formulas.gdstar_value."""
        entry.module = ACCESS_MODULE
        base = entry.access_count * entry.cost / entry.size
        if base <= 0.0:
            value = self.inflation
        else:
            value = self.inflation + base ** self._inv_beta
        self.ac.add(entry, value)
        self._on_ac_insert(entry)

    def _on_ac_insert(self, entry: CacheEntry) -> None:
        """Hook: DC-AP stamps freshness here."""

    def _on_ac_access(self, entry: CacheEntry) -> None:
        """Hook: DC-AP refreshes the idle-tracking stamp here."""

    # -- push time (shared by all DC variants) -----------------------------

    def on_publish(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> PushOutcome:
        stats = self.stats
        resident = self._pc_entries.get(page_id)
        if resident is not None:
            if resident.version == version:
                return PUSH_SKIPPED
            resident.version = version
            resident.match_count = match_count
            self.pc.reprice(resident, match_count * resident.cost / resident.size)
            stats.pages_pushed_stored += 1
            stats.bytes_pushed += size
            return PUSH_REFRESHED
        resident = self._ac_entries.get(page_id)
        if resident is not None:
            if resident.version == version:
                return PUSH_SKIPPED
            # Content refresh of an access-cache resident; ownership
            # and GD* value are unchanged (an update is not an access).
            resident.version = version
            resident.match_count = match_count
            stats.pages_pushed_stored += 1
            stats.bytes_pushed += size
            return PUSH_REFRESHED

        if self._pc_place(page_id, version, size, match_count, now):
            stats.pages_pushed_stored += 1
            stats.bytes_pushed += size
            return PUSH_STORED
        stats.pages_pushed_rejected += 1
        return PUSH_SKIPPED

    def _pc_place(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> bool:
        """SUB placement into PC.

        Value first, entry last: eq. 2 inlined (same operation order as
        _formulas.sub_value), the CacheEntry built only once PC has room.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        value = match_count * self.cost / size
        result = self.pc.evict_cheaper_for(size, value)
        if result.success:
            for evicted in result.evicted:
                self._note_eviction(evicted, "displaced")
        elif not self._grow_pc_for(size):
            return False
        entry = CacheEntry(
            page_id=page_id,
            version=version,
            size=size,
            cost=self.cost,
            match_count=match_count,
            module=PUSH_MODULE,
            last_access_time=now,
        )
        self.pc.add(entry, value)
        return True

    def _grow_pc_for(self, size: int) -> bool:
        """Hook: DC-AP repartitions here when SUB cannot place a page."""
        return False

    # -- access time (shared skeleton; PC-hit handling differs) ---------------

    def on_request(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> RequestOutcome:
        # Replay hot path: probes, valuation and stats inlined; the
        # math reproduces _formulas.gdstar_value bit for bit.
        stats = self.stats
        bucket = int(now // 3600.0)
        stats.requests += 1
        breq = stats.bucketed_requests
        breq[bucket] = breq.get(bucket, 0) + 1
        entry = self._ac_entries.get(page_id)
        in_ac = entry is not None
        if not in_ac:
            entry = self._pc_entries.get(page_id)
            if entry is None:
                stats.pages_fetched += 1
                stats.bytes_fetched += size
                if not self._ac_evict_for(size):
                    return REQUEST_MISS
                entry = CacheEntry(
                    page_id=page_id,
                    version=version,
                    size=size,
                    cost=self.cost,
                    match_count=match_count,
                    access_count=1,
                    last_access_time=now,
                )
                self._ac_insert(entry)
                return REQUEST_MISS_CACHED
        hit = entry.version == version
        if not hit:
            entry.version = version  # stale: fresh bytes are fetched
        entry.access_count += 1
        entry.accessed_since_replacement = True
        entry.last_access_time = now
        if in_ac:
            base = entry.access_count * entry.cost / entry.size
            if base <= 0.0:
                value = self.inflation
            else:
                value = self.inflation + base ** self._inv_beta
            entry.value = value
            self.ac.heap.push(page_id, value)
            self._on_ac_access(entry)
            cached = True
        else:
            # First access to a PC resident: the page is referenced
            # now, so it belongs to AC.
            cached = self._promote(entry)
        if hit:
            stats.hits += 1
            stats.bytes_served_local += size
            bhits = stats.bucketed_hits
            bhits[bucket] = bhits.get(bucket, 0) + 1
            return REQUEST_HIT if cached else REQUEST_HIT_DROPPED
        stats.stale_hits += 1
        stats.pages_fetched += 1
        stats.bytes_fetched += size
        return REQUEST_STALE if cached else REQUEST_STALE_DROPPED

    def _promote(self, entry: CacheEntry) -> bool:
        """Rehouse a PC resident on its first access (already recorded
        on the entry); returns whether the page is still cached.

        DC-FP semantics: physically move the page into AC space, which
        may trigger a GD* replacement there.
        """
        self.pc.remove(entry.page_id)
        if not self._ac_evict_for(entry.size):
            return False
        self._ac_insert(entry)
        return True

    def drop_contents(self) -> None:
        """Cold restart: both partitions empty out.  Partition *sizes*
        persist (they are configuration in DC-FP; for the adaptive
        variants the learnt split is the best available restart point)."""
        self.pc.clear()
        self.ac.clear()
        self.inflation = 0.0

    # -- introspection -----------------------------------------------------------

    def held_version(self, page_id: int) -> Optional[int]:
        entry = self._pc_entries.get(page_id) or self._ac_entries.get(page_id)
        return None if entry is None else entry.version

    @property
    def used_bytes(self) -> int:
        return self.pc.used_bytes + self.ac.used_bytes

    def check_invariants(self) -> None:
        self.pc.check_invariants()
        self.ac.check_invariants()
        total = self.pc.capacity_bytes + self.ac.capacity_bytes
        if total != self.capacity_bytes:
            raise AssertionError(
                f"partition drift: pc={self.pc.capacity_bytes} "
                f"ac={self.ac.capacity_bytes} total={self.capacity_bytes}"
            )
        overlap = set(self.pc.heap.keys()) & set(self.ac.heap.keys())
        if overlap:
            raise AssertionError(f"pages cached in both partitions: {overlap}")


class DualCacheFixedPolicy(_DualCacheBase):
    """DC-FP — dual caches with a fixed partition (§3.3)."""

    name = "dc-fp"


class DualCacheAdaptivePolicy(_DualCacheBase):
    """DC-AP / DC-LAP — dual caches with an adaptive partition (§3.3).

    With the default unbounded fractions this is DC-AP; passing
    ``lower_fraction=0.25, upper_fraction=0.75`` gives DC-LAP.  The
    partition adapts by *relabeling* storage:

    * an accessed PC page's bytes are relabeled as AC (no AC
      replacement is triggered), and
    * when SUB cannot place a pushed page in PC, AC pages that have not
      been referenced since the last AC replacement are evicted
      cheapest-GD*-value-first and their bytes relabeled as PC.
    """

    name = "dc-ap"

    def __init__(
        self,
        capacity_bytes: int,
        cost: float = 1.0,
        beta: float = 2.0,
        push_fraction: float = 0.5,
        lower_fraction: float = 0.0,
        upper_fraction: float = 1.0,
    ) -> None:
        if not 0.0 <= lower_fraction <= upper_fraction <= 1.0:
            raise ValueError(
                f"need 0 <= lower <= upper <= 1, got "
                f"[{lower_fraction}, {upper_fraction}]"
            )
        if not lower_fraction <= push_fraction <= upper_fraction:
            raise ValueError(
                f"push_fraction {push_fraction} outside "
                f"[{lower_fraction}, {upper_fraction}]"
            )
        super().__init__(capacity_bytes, cost, beta, push_fraction)
        self.lower_fraction = float(lower_fraction)
        self.upper_fraction = float(upper_fraction)
        if lower_fraction > 0.0 or upper_fraction < 1.0:
            self.name = "dc-lap"
        # Idle tracking: an AC entry is an eviction/donation candidate
        # when it has not been accessed since the last AC replacement.
        self._ac_generation = 0
        self._stamps: dict = {}
        self._fresh_bytes = 0

    # -- idle tracking hooks ------------------------------------------------

    def _on_ac_insert(self, entry: CacheEntry) -> None:
        self._stamps[entry.page_id] = self._ac_generation
        self._fresh_bytes += entry.size

    def _on_ac_access(self, entry: CacheEntry) -> None:
        if self._stamps.get(entry.page_id) != self._ac_generation:
            self._stamps[entry.page_id] = self._ac_generation
            self._fresh_bytes += entry.size

    def _on_ac_replacement(self, evicted: Sequence[CacheEntry]) -> None:
        # A replacement round begins a new generation: every surviving
        # AC entry becomes idle until accessed again.
        for entry in evicted:
            self._stamps.pop(entry.page_id, None)
        self._ac_generation += 1
        self._fresh_bytes = 0

    # -- repartition: AC -> PC at push time -----------------------------------

    def _grow_pc_for(self, size: int) -> bool:
        """The paper's DC-AP placing algorithm: grow PC from idle AC
        pages until ``size`` bytes fit there, all or nothing.

        The scan filters AC's minima by idleness, so it is its own loop
        rather than ``pop_cheaper``; it reads the heap the same way
        (skim and pop inline on the backing list) and keeps a running
        donor total.
        """
        ac = self.ac
        if ac.used_bytes - self._fresh_bytes < size:
            return False  # not enough idle bytes in AC
        pc_storage = self.pc.storage
        heap = ac.heap
        backing = heap._heap
        live = heap._live
        entries = self._ac_entries
        stamps = self._stamps
        generation = self._ac_generation
        donated: List[CacheEntry] = []
        set_aside: List[Tuple[int, float]] = []
        needed = size - pc_storage.free_bytes
        new_pc = pc_storage.capacity_bytes
        total = max(1, self.capacity_bytes)
        moved_bytes = 0
        feasible = True
        while moved_bytes < needed:
            while backing:
                record = backing[0]
                if live.get(record[2]) is record:
                    break
                heappop(backing)
            if not backing:
                feasible = False
                break
            heappop(backing)
            victim_value, _sequence, victim_id = record
            del live[victim_id]
            if stamps.get(victim_id) == generation:
                # Accessed since the last AC replacement: not a donor.
                set_aside.append((victim_id, victim_value))
                continue
            victim = entries[victim_id]
            if (new_pc + victim.size) / total > self.upper_fraction:
                set_aside.append((victim_id, victim_value))
                feasible = False
                break
            donated.append(victim)
            moved_bytes += victim.size
            new_pc += victim.size
        # Fresh pages that surfaced during the scan go back untouched.
        for aside_id, aside_value in set_aside:
            heap.push(aside_id, aside_value)
        if not feasible:
            for entry in donated:
                heap.push(entry.page_id, entry.value)
            return False
        # Commit: evict donors from AC, relabel their bytes as PC.
        for entry in donated:
            ac.storage.remove(entry.page_id)
            stamps.pop(entry.page_id, None)
            self._note_eviction(entry, "repartition")
        ac.storage.resize(ac.capacity_bytes - moved_bytes)
        pc_storage.resize(new_pc)
        return True

    # -- repartition: PC -> AC at access time ----------------------------------

    def drop_contents(self) -> None:
        super().drop_contents()
        self._stamps.clear()
        self._fresh_bytes = 0
        self._ac_generation += 1

    def _promote(self, entry: CacheEntry) -> bool:
        """Relabel the accessed PC page's storage as AC (no replacement).

        Falls back to the DC-FP physical move when shrinking PC below
        the lower bound is not allowed (DC-LAP).
        """
        pc = self.pc
        new_pc = pc.capacity_bytes - entry.size
        if new_pc / max(1, self.capacity_bytes) < self.lower_fraction:
            return super()._promote(entry)
        pc.remove(entry.page_id)
        pc.storage.resize(new_pc)
        self.ac.storage.resize(self.ac.capacity_bytes + entry.size)
        self._ac_insert(entry)
        return True

"""Byte-accounted cache storage.

Policies decide *what* to store and evict; :class:`CacheStorage` is the
mechanism: a dict of :class:`~repro.cache.entry.CacheEntry` keyed by
page_id with exact byte accounting and invariant checks.  One page_id
holds at most one entry (one version) at a time — pushing a newer
version of a cached page replaces it in place.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.cache.entry import CacheEntry


class CacheStorage:
    """A capacity-limited store of cache entries, keyed by page_id.

    The byte-accounting fields are slotted for the replay hot path;
    ``"__dict__"`` stays in the slot list so the observer can still
    install its per-instance ``listener`` attribute.
    """

    __slots__ = ("capacity_bytes", "_entries", "_used_bytes", "__dict__")

    #: Optional observability hook, called as ``listener(op, entry)``
    #: with ``op`` in {"add", "remove"} after each successful mutation.
    #: ``None`` (the class default) keeps the mutation paths untouched.
    listener = None

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._entries: Dict[int, CacheEntry] = {}
        self._used_bytes = 0

    # -- capacity -------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used_bytes

    def fits(self, size: int) -> bool:
        """Whether ``size`` bytes fit without any eviction."""
        return size <= self.free_bytes

    def resize(self, new_capacity: int) -> None:
        """Change the capacity (used by the adaptive dual-cache split).

        The new capacity must cover the bytes currently stored; the
        adaptive strategies always evict or relocate entries before
        shrinking a partition.
        """
        if new_capacity < self._used_bytes:
            raise ValueError(
                f"cannot shrink below used bytes: new={new_capacity} "
                f"used={self._used_bytes}"
            )
        self.capacity_bytes = int(new_capacity)

    def can_ever_fit(self, size: int) -> bool:
        """Whether ``size`` bytes could fit even with a full purge."""
        return size <= self.capacity_bytes

    # -- content ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._entries

    def get(self, page_id: int) -> Optional[CacheEntry]:
        return self._entries.get(page_id)

    def entries(self) -> Iterator[CacheEntry]:
        return iter(self._entries.values())

    @property
    def entries_by_id(self) -> Dict[int, CacheEntry]:
        """The live page_id -> entry map.

        This is the backing dict itself, not a copy — hot replay loops
        probe it directly (``entries_by_id.get(page)``) without paying a
        bound-method call per event.  Callers must treat it as
        read-only; mutations bypass byte accounting and the listener.
        """
        return self._entries

    def add(self, entry: CacheEntry) -> None:
        """Insert ``entry``; the caller must have made room first."""
        if entry.page_id in self._entries:
            raise ValueError(
                f"page {entry.page_id} already cached; remove or replace it"
            )
        size = entry.size
        if size > self.capacity_bytes - self._used_bytes:
            raise ValueError(
                f"no room for page {entry.page_id}: size={size} "
                f"free={self.free_bytes}"
            )
        self._entries[entry.page_id] = entry
        self._used_bytes += size
        if self.listener is not None:
            self.listener("add", entry)

    def remove(self, page_id: int) -> CacheEntry:
        """Remove and return the entry for ``page_id``."""
        entry = self._entries.pop(page_id)
        self._used_bytes -= entry.size
        if self.listener is not None:
            self.listener("remove", entry)
        return entry

    def pop_if_present(self, page_id: int) -> Optional[CacheEntry]:
        """Remove the entry if cached; return it or None."""
        if page_id in self._entries:
            return self.remove(page_id)
        return None

    def clear(self) -> None:
        self._entries.clear()
        self._used_bytes = 0

    def check_invariants(self) -> None:
        """Verify byte accounting (used by tests and debug assertions)."""
        actual = sum(entry.size for entry in self._entries.values())
        if actual != self._used_bytes:
            raise AssertionError(
                f"byte accounting drifted: tracked={self._used_bytes} actual={actual}"
            )
        if self._used_bytes > self.capacity_bytes:
            raise AssertionError(
                f"over capacity: used={self._used_bytes} "
                f"capacity={self.capacity_bytes}"
            )

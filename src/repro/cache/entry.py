"""Cache entries.

An entry records one cached page version together with the mutable
state the replacement policies maintain.  The dual-cache strategies
(DC-FP/DC-AP/DC-LAP) additionally label each entry with the module that
owns its storage — the paper's 2-tuple ``(o, v)`` where ``o`` is the
owning module and ``v`` the value under that module's policy (§3.3).

Entries are the highest-population objects of a replay (one per cached
page per proxy, churned on every eviction), so the class is a plain
``__slots__`` record rather than a dataclass: no per-instance
``__dict__``, cheaper attribute access, and a fixed field set the
replacement policies can mutate in place.
"""

from __future__ import annotations


#: Entry/storage owned by the access-time (caching) module.
ACCESS_MODULE = "access"
#: Entry/storage owned by the push-time (placing) module.
PUSH_MODULE = "push"

_FIELDS = (
    "page_id",
    "version",
    "size",
    "cost",
    "access_count",
    "match_count",
    "value",
    "module",
)


class CacheEntry:
    """A cached page version plus policy bookkeeping.

    Attributes:
        page_id: stable page identifier.
        version: cached version number (stale versions are misses).
        size: bytes occupied.
        cost: fetch cost ``c(p)`` from this proxy to the publisher.
        access_count: ``a`` — accesses since the page entered the cache
            (reset on eviction per In-Cache LFU, §3.1).
        match_count: ``s`` — subscriptions matching the page at this
            proxy (static during a run; §4.3).
        value: current value under the owning policy (0 until it sets one).
        module: owning module label (dual-cache strategies only).
    """

    __slots__ = _FIELDS

    def __init__(
        self,
        page_id: int,
        version: int,
        size: int,
        cost: float,
        access_count: int = 0,
        match_count: int = 0,
        module: str = ACCESS_MODULE,
    ) -> None:
        if size <= 0:
            raise ValueError(f"entry size must be positive, got {size}")
        if cost <= 0:
            raise ValueError(f"entry cost must be positive, got {cost}")
        if module not in (ACCESS_MODULE, PUSH_MODULE):
            raise ValueError(f"unknown module label: {module!r}")
        self.page_id = page_id
        self.version = version
        self.size = size
        self.cost = cost
        self.access_count = access_count
        self.match_count = match_count
        self.value = 0.0
        self.module = module

    def record_access(self) -> None:
        """Register one access to the cached copy."""
        self.access_count += 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheEntry):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in _FIELDS
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _FIELDS)
        return f"CacheEntry({fields})"

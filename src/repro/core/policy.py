"""The policy interface shared by every content distribution strategy.

A policy lives on one proxy server.  The simulator drives it through
two entry points, matching the paper's two placement opportunities:

* :meth:`Policy.on_publish` — *push time*: the matching engine found
  ``match_count`` local subscriptions for a freshly published page
  version.  The policy decides whether the content should be stored
  (and therefore transferred under Pushing-When-Necessary).
* :meth:`Policy.on_request` — *access time*: a local user asked for the
  current version of a page.  The policy reports hit/miss and performs
  any access-time placement.

Traffic and request accounting stay in the simulator: policies return
what happened and count only their own pushes and evictions; the
simulator prices transfers under the active pushing scheme and counts
requests, hits, bytes and latency from each returned outcome.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional

from repro.cache.stats import CacheStats


def check_beta(beta: float) -> float:
    """``beta`` as a float when it is finite and > 0, else ``ValueError``.

    Written so NaN fails too: it passes every ``beta <= 0``.
    """
    if not 0.0 < beta < float("inf"):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    return float(beta)


@dataclass(frozen=True, slots=True)
class PushOutcome:
    """Result of a push-time placement attempt.

    Attributes:
        stored: the page content now resides in the cache.
        refreshed: an already-cached entry was updated to the new
            version (implies ``stored``).
    """

    stored: bool
    refreshed: bool = False

    def __post_init__(self) -> None:
        if self.refreshed and not self.stored:
            raise ValueError("refreshed implies stored")


#: ``RequestOutcome.code`` values: the byte a replay records per
#: request, from which the simulator counts hits, bytes and latency.
MISS, HIT, STALE = 0, 1, 2


@dataclass(frozen=True, slots=True)
class RequestOutcome:
    """Result of serving one user request.

    Attributes:
        hit: the current version was served from the local cache.
        stale: a previous version was cached (still a miss; the fresh
            version is fetched from the publisher).
        cached_after: the requested page resides in the cache after the
            request completed (policies may decline to keep it).
        code: :data:`HIT`, :data:`STALE` or :data:`MISS`, derived from
            ``hit`` and ``stale``.
    """

    hit: bool
    stale: bool = False
    cached_after: bool = False
    code: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.hit and self.stale:
            raise ValueError("a hit cannot be stale")
        object.__setattr__(
            self, "code", HIT if self.hit else STALE if self.stale else MISS
        )


# Interned outcome constants.  Frozen dataclasses pay an
# ``object.__setattr__`` per field on construction, and the replay hot
# path returns one outcome per event — millions per run.  The nine
# combinations the policies actually produce are pre-built here;
# equality is by value, so callers that compare against freshly
# constructed instances are unaffected.
PUSH_SKIPPED = PushOutcome(stored=False)
PUSH_STORED = PushOutcome(stored=True)
PUSH_REFRESHED = PushOutcome(stored=True, refreshed=True)

REQUEST_HIT = RequestOutcome(hit=True, cached_after=True)
REQUEST_HIT_DROPPED = RequestOutcome(hit=True, cached_after=False)
REQUEST_STALE = RequestOutcome(hit=False, stale=True, cached_after=True)
REQUEST_STALE_DROPPED = RequestOutcome(hit=False, stale=True, cached_after=False)
REQUEST_MISS = RequestOutcome(hit=False, cached_after=False)
REQUEST_MISS_CACHED = RequestOutcome(hit=False, cached_after=True)


class Policy(ABC):
    """Base class for placement/replacement strategies on one proxy.

    Args:
        capacity_bytes: cache capacity of this proxy.
        cost: fetch cost ``c(p)`` from this proxy to the publisher
            (network hop distance; constant per proxy, per §3.1).

    The base attributes the replay hot paths touch on every event are
    slotted; ``"__dict__"`` stays in the slot list so subclasses that
    declare no ``__slots__`` of their own — and ad-hoc instance
    attributes like the per-instance ``name`` override or the
    observer-installed ``evict_listener`` — keep working unchanged.
    """

    __slots__ = ("capacity_bytes", "cost", "stats", "__dict__")

    #: Registry name, set by subclasses (e.g. ``"gdstar"``).
    name: str = "abstract"
    #: Optional observability hook, called as ``listener(page_id,
    #: size, cause)`` after each eviction.  ``None`` (the class
    #: default) keeps the eviction path free of extra work; the
    #: simulator installs one per proxy when an Observer is attached.
    evict_listener = None
    #: Whether the strategy has a push-time module at all.  Pure
    #: access-time policies (GD*, LRU, ...) set this False; the
    #: simulator then never transfers pushed content to them, even
    #: under Always-Pushing (§5.6: GD*'s traffic does not change with
    #: the pushing scheme).
    uses_push: bool = True

    def __init__(self, capacity_bytes: int, cost: float = 1.0) -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_bytes}")
        if cost <= 0:
            raise ValueError(f"cost must be positive, got {cost}")
        self.capacity_bytes = int(capacity_bytes)
        self.cost = float(cost)
        self.stats = CacheStats()

    # -- the two placement opportunities ---------------------------------

    @abstractmethod
    def on_publish(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> PushOutcome:
        """Handle a matched publication (push-time placement)."""

    @abstractmethod
    def on_request(
        self, page_id: int, version: int, size: int, match_count: int, now: float
    ) -> RequestOutcome:
        """Serve a user request for the current ``version`` of a page."""

    # -- introspection ------------------------------------------------------

    @abstractmethod
    def held_version(self, page_id: int) -> Optional[int]:
        """Version cached for ``page_id``; ``None`` when it is absent.

        The only abstract introspection method — :meth:`cached_version`
        derives from it — and side-effect free: the simulator asks once
        per request, before any accounted ``on_request`` call, and
        builds its degraded paths on the answer
        (hit probing under faults, peer lookups in the cooperative
        extension, the overload layer's serve-stale mode) without
        touching recency or placement state.
        """

    def cached_version(self, page_id: int) -> int:
        """Version cached for ``page_id``; raises KeyError when absent."""
        version = self.held_version(page_id)
        if version is None:
            raise KeyError(f"page {page_id} not cached")
        return version

    @property
    @abstractmethod
    def used_bytes(self) -> int:
        """Bytes currently occupied."""

    @abstractmethod
    def check_invariants(self) -> None:
        """Raise AssertionError if internal bookkeeping drifted."""

    # -- fault model ---------------------------------------------------------

    def drop_contents(self) -> None:
        """Discard every cached page: the proxy process restarted cold.

        Dropped pages are not evictions (no replacement decision was
        made), so eviction counters are untouched.  Configuration
        (capacity, cost, strategy parameters) survives a restart;
        in-memory state does not.  Subclasses with state beyond the
        standard ``_cache`` heap-cache override this.
        """
        cache = getattr(self, "_cache", None)
        if cache is None:
            raise NotImplementedError(
                f"{type(self).__name__} must implement drop_contents()"
            )
        cache.clear()

    # -- shared helpers -----------------------------------------------------

    def _note_eviction(self, entry, cause: str = "capacity") -> None:
        """Count one eviction and notify the observability hook.

        ``cause`` distinguishes unconditional replacement
        ("capacity"), conditional displacement by a more valuable page
        ("displaced") and dual-cache repartitioning ("repartition").
        """
        stats = self.stats
        stats.evictions += 1
        stats.bytes_evicted += entry.size
        if self.evict_listener is not None:
            self.evict_listener(entry.page_id, entry.size, cause)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"{type(self).__name__}(capacity={self.capacity_bytes}, "
            f"used={self.used_bytes}, cost={self.cost})"
        )

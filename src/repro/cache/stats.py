"""Per-cache statistics.

Counts requests, hits, stale hits (right page, outdated version — a
miss for freshness purposes), bytes served locally and bytes fetched
from the publisher, pushes and evictions.  The simulator aggregates
these into the paper's global hit ratio H (eq. 8) and traffic curves
(Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(slots=True)
class CacheStats:
    """Mutable counters for one proxy cache.

    The policy bumps only the push and eviction counters, as it decides.
    The request counters, the hourly buckets and ``response_time`` are
    the simulator's: it fills them once after the loop, from one outcome
    byte per request (``Simulation._count_requests``).
    """

    requests: int = 0
    hits: int = 0
    stale_hits: int = 0
    bytes_served_local: int = 0
    bytes_fetched: int = 0
    pages_fetched: int = 0
    pages_pushed_stored: int = 0
    pages_pushed_rejected: int = 0
    bytes_pushed: int = 0
    evictions: int = 0
    bytes_evicted: int = 0
    #: Summed response latency of this proxy's requests (seconds), added
    #: in request order by the one count, also of a sharded run, so the
    #: float sum is the same however many processes replayed.
    response_time: float = 0.0
    #: Optional per-bucket (e.g. hourly) request/hit counters.
    bucketed_requests: Dict[int, int] = field(default_factory=dict)
    bucketed_hits: Dict[int, int] = field(default_factory=dict)

    @property
    def misses(self) -> int:
        return self.requests - self.hits

    @property
    def hit_ratio(self) -> float:
        """Hit ratio of this cache; 0.0 when no requests were seen."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    def record_push(self, stored: bool, size: int, transferred: bool) -> None:
        """Record a push-time placement attempt.

        ``transferred`` tells whether content bytes actually crossed the
        network (Always-Pushing transfers even rejected pages;
        Pushing-When-Necessary does not — §5.6).
        """
        if stored:
            self.pages_pushed_stored += 1
        else:
            self.pages_pushed_rejected += 1
        if transferred:
            self.bytes_pushed += size

    def record_eviction(self, size: int) -> None:
        self.evictions += 1
        self.bytes_evicted += size

"""The publisher / origin server.

Holds the authoritative copy of every page: its size and its *current*
version number.  Proxies fetch from here on misses; the content
distribution engine pushes from here at publish time.  The publisher
also tallies its outbound traffic, split into push transfers and
demand fetches, per hour — the data behind Fig. 7.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.log import get_logger
from repro.workload.trace import Workload

logger = get_logger(__name__)


class Publisher:
    """Origin server state and outbound traffic accounting."""

    def __init__(self, workload: Workload) -> None:
        self._sizes: Dict[int, int] = {
            page.page_id: page.size for page in workload.pages
        }
        self._versions: Dict[int, int] = {}
        #: Whether the origin is currently reachable.  Toggled by the
        #: fault injector; an outage means proxies can neither fetch
        #: from nor be pushed to by the publisher (the authoritative
        #: copy itself survives — new versions accumulate and flow once
        #: the origin is reachable again).
        self.up = True
        #: Accumulated unreachable time (seconds) over completed outages.
        self.outage_seconds = 0.0
        self._down_since: Optional[float] = None
        # Outbound traffic, bucketed by hour.
        self.push_pages_by_hour: Dict[int, int] = {}
        self.push_bytes_by_hour: Dict[int, int] = {}
        self.fetch_pages_by_hour: Dict[int, int] = {}
        self.fetch_bytes_by_hour: Dict[int, int] = {}
        #: Staleness-repair traffic (access-time validation caught a
        #: missed push) — kept apart from demand fetches so the repair
        #: cost of an unreliable push path is visible on its own.
        self.repair_pages_by_hour: Dict[int, int] = {}
        self.repair_bytes_by_hour: Dict[int, int] = {}
        #: The publish rows behind staleness ages ("how old was the copy a
        #: proxy served or repaired?"), and on first use their instants in
        #: (page, version) order with each page's first index.
        self._publishes = workload.publishes.rows
        self._instants: Optional[Tuple[List[float], List[int]]] = None

    def staleness_age(self, page_id: int, cached_version: int, now: float) -> float:
        """Seconds since a copy at ``cached_version`` first went stale.

        The copy went stale the instant version ``cached_version + 1``
        was published; returns 0.0 when the copy is in fact current:
        when version ``cached_version + 1`` is not yet published.
        """
        next_version = cached_version + 1
        if next_version > self._versions.get(page_id, -1):
            return 0.0
        if self._instants is None:
            rows = self._publishes
            order = np.lexsort((rows["version"], rows["page_id"]))
            pages = rows["page_id"][order]
            firsts = np.searchsorted(pages, np.arange(pages.max() + 1))
            self._instants = rows["time"][order].tolist(), firsts.tolist()
        times, firsts = self._instants
        return max(0.0, now - times[firsts[page_id] + next_version])

    # -- fault model -------------------------------------------------------

    def go_dark(self, now: float) -> None:
        """The origin becomes unreachable."""
        if not self.up:
            raise RuntimeError("publisher is already down")
        self.up = False
        self._down_since = now
        logger.debug("publisher outage begins at t=%.1f", now)

    def come_back(self, now: float) -> None:
        """The origin is reachable again."""
        if self.up:
            raise RuntimeError("publisher is already up")
        self.up = True
        if self._down_since is not None:
            self.outage_seconds += now - self._down_since
            self._down_since = None
        logger.debug("publisher reachable again at t=%.1f", now)

    # -- traffic accounting ------------------------------------------------

    def record_push_transfer(self, page_id: int, at: float) -> None:
        """One page pushed (content actually transferred) at time ``at``."""
        hour = int(at // 3600.0)
        size = self._sizes[page_id]
        self.push_pages_by_hour[hour] = self.push_pages_by_hour.get(hour, 0) + 1
        self.push_bytes_by_hour[hour] = self.push_bytes_by_hour.get(hour, 0) + size

    def record_fetch(self, page_id: int, at: float) -> None:
        """One demand fetch served (cache miss at some proxy)."""
        hour = int(at // 3600.0)
        size = self._sizes[page_id]
        self.fetch_pages_by_hour[hour] = self.fetch_pages_by_hour.get(hour, 0) + 1
        self.fetch_bytes_by_hour[hour] = self.fetch_bytes_by_hour.get(hour, 0) + size

    def record_repair(self, page_id: int, at: float) -> None:
        """One staleness-repair fetch served (missed push healed)."""
        hour = int(at // 3600.0)
        size = self._sizes[page_id]
        self.repair_pages_by_hour[hour] = self.repair_pages_by_hour.get(hour, 0) + 1
        self.repair_bytes_by_hour[hour] = (
            self.repair_bytes_by_hour.get(hour, 0) + size
        )

    @property
    def total_push_pages(self) -> int:
        return sum(self.push_pages_by_hour.values())

    @property
    def total_fetch_pages(self) -> int:
        return sum(self.fetch_pages_by_hour.values())

    @property
    def total_push_bytes(self) -> int:
        return sum(self.push_bytes_by_hour.values())

    @property
    def total_fetch_bytes(self) -> int:
        return sum(self.fetch_bytes_by_hour.values())

    @property
    def total_repair_pages(self) -> int:
        return sum(self.repair_pages_by_hour.values())

    @property
    def total_repair_bytes(self) -> int:
        return sum(self.repair_bytes_by_hour.values())

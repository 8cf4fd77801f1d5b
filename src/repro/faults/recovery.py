"""Post-crash recovery instrumentation (time-to-warm).

The point of push-time placement under chaos: a proxy that restarts
cold can be re-warmed by pushes *before* users ask.  To measure that,
:class:`RecoveryTracker` watches every proxy after each recovery and
produces

* a **recovery curve** — served requests and hits bucketed by time
  since recovery, aggregated over all crashes, and
* a **time-to-warm** sample per crash — how long until a rolling
  window of the proxy's requests hits ``warm_threshold`` of its
  pre-crash hit ratio.

It also keeps the books of access-time **staleness repair**, the other
way the system heals (silently stale serves, validations, the age
histogram), and of pushes suppressed while an endpoint was down;
:meth:`RecoveryTracker.collect` writes all of it into the result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List

from repro.system.metrics import (
    STALENESS_AGE_BIN_EDGES,
    dense_counts,
    staleness_age_bin,
)


@dataclass
class _Warming:
    """One proxy's state between a recovery and reaching warmth."""

    recovered_at: float
    pre_hit_ratio: float
    window: Deque[bool]


@dataclass
class RecoveryReport:
    """Aggregated recovery data of one run."""

    bin_seconds: float
    curve_requests: List[int] = field(default_factory=list)
    curve_hits: List[int] = field(default_factory=list)
    time_to_warm: List[float] = field(default_factory=list)
    #: Recoveries whose cache never reached the warm threshold before
    #: the run (or the next crash) ended.
    unwarmed: int = 0


class RecoveryTracker:
    """Aggregates per-proxy recovery curves and time-to-warm samples."""

    def __init__(
        self,
        warm_request_window: int = 50,
        warm_threshold: float = 0.8,
        bin_seconds: float = 600.0,
        bin_count: int = 12,
    ) -> None:
        if warm_request_window < 1:
            raise ValueError("warm_request_window must be >= 1")
        if bin_count < 1 or bin_seconds <= 0:
            raise ValueError("need bin_count >= 1 and bin_seconds > 0")
        self.warm_request_window = int(warm_request_window)
        self.warm_threshold = float(warm_threshold)
        self.bin_seconds = float(bin_seconds)
        self.bin_count = int(bin_count)
        self._pre_ratio: Dict[int, float] = {}
        self._warming: Dict[int, _Warming] = {}
        self._report = RecoveryReport(
            bin_seconds=self.bin_seconds,
            curve_requests=[0] * self.bin_count,
            curve_hits=[0] * self.bin_count,
        )
        #: Pushes skipped because the origin or the target proxy was down.
        self.pushes_suppressed = 0
        #: Requests answered with a copy the proxy wrongly believed current.
        self.stale_hits_served = 0
        #: Access-time sequence validations performed (repair enabled).
        self.staleness_validations = 0
        self._stale_served_by_hour: Dict[int, int] = {}
        self._staleness_age_counts = [0] * (len(STALENESS_AGE_BIN_EDGES) + 1)

    # -- lifecycle hooks (called by the simulator) --------------------------

    def on_crash(self, server_id: int, now: float, pre_hit_ratio: float) -> None:
        """A proxy just crashed; remember how warm it was."""
        if self._warming.pop(server_id, None) is not None:
            # Crashed again before re-warming from the previous crash.
            self._report.unwarmed += 1
        self._pre_ratio[server_id] = float(pre_hit_ratio)

    def on_recover(self, server_id: int, now: float) -> None:
        self._warming[server_id] = _Warming(
            recovered_at=now,
            pre_hit_ratio=self._pre_ratio.get(server_id, 0.0),
            window=deque(maxlen=self.warm_request_window),
        )

    def on_request(self, server_id: int, hit: bool, now: float) -> None:
        """A request was *served* at ``server_id`` (hits and misses)."""
        state = self._warming.get(server_id)
        if state is None:
            return
        since = now - state.recovered_at
        bin_index = int(since // self.bin_seconds)
        if 0 <= bin_index < self.bin_count:
            self._report.curve_requests[bin_index] += 1
            if hit:
                self._report.curve_hits[bin_index] += 1
        state.window.append(hit)
        if len(state.window) < self.warm_request_window:
            return
        ratio = sum(state.window) / len(state.window)
        if ratio >= self.warm_threshold * state.pre_hit_ratio:
            self._report.time_to_warm.append(since)
            del self._warming[server_id]

    # -- staleness books (fed by the delivery layer's request stage) --------

    def on_stale_served(self, now: float, age: float) -> None:
        """One silently stale response, ``age`` seconds behind the origin."""
        self.stale_hits_served += 1
        hour = int(now // 3600.0)
        self._stale_served_by_hour[hour] = self._stale_served_by_hour.get(hour, 0) + 1
        self.sample_staleness_age(age)

    def sample_staleness_age(self, age: float) -> None:
        self._staleness_age_counts[staleness_age_bin(age)] += 1

    # -- results -----------------------------------------------------------

    def report(self) -> RecoveryReport:
        """Finalise: proxies still warming count as unwarmed."""
        self._report.unwarmed += len(self._warming)
        self._warming.clear()
        return self._report

    def collect(self, result, proxies, publisher) -> None:
        """Write the fault block of ``result``: crashes and outages as
        ``proxies`` and ``publisher`` lived them, the recovery report,
        and the staleness-repair books."""
        report = self.report()
        hours = result.hour_count
        result.proxy_crashes = sum(p.crash_count for p in proxies)
        result.proxy_downtime_seconds = sum(p.downtime_seconds for p in proxies)
        result.publisher_outage_seconds = publisher.outage_seconds
        result.pushes_suppressed = self.pushes_suppressed
        result.time_to_warm_seconds = report.time_to_warm
        result.unwarmed_recoveries = report.unwarmed
        result.recovery_curve_requests = report.curve_requests
        result.recovery_curve_hits = report.curve_hits
        result.recovery_bin_seconds = report.bin_seconds
        result.stale_hits_served = self.stale_hits_served
        result.staleness_validations = self.staleness_validations
        result.repair_fetches = publisher.total_repair_pages
        result.repair_bytes = publisher.total_repair_bytes
        result.hourly_stale_served = dense_counts(self._stale_served_by_hour, hours)
        result.hourly_repair_pages = dense_counts(publisher.repair_pages_by_hour, hours)
        result.hourly_repair_bytes = dense_counts(publisher.repair_bytes_by_hour, hours)
        result.staleness_age_bin_edges = list(STALENESS_AGE_BIN_EDGES)
        result.staleness_age_counts = list(self._staleness_age_counts)

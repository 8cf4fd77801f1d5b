"""The :class:`Observer` facade the simulator talks to.

One object bundles the observability concerns — a
:class:`~repro.obs.registry.MetricsRegistry`, an
:class:`~repro.obs.tracer.EventTracer`, a
:class:`~repro.obs.profile.Profiler`, a
:class:`~repro.obs.timeseries.TimeSeriesCollector` and a
:class:`~repro.obs.monitor.RunMonitor` — behind semantic hooks
(``publish``, ``request_outcome``, ``evict``, ``crash`` ...) so the
simulator never builds event dicts or picks metric names itself.
Every part is optional: an Observer with only a tracer traces, one
with only a registry counts, one with only a time-series collector
produces per-window trajectories.

:data:`NULL_OBSERVER` is the module-level default.  Its ``enabled``
flag is ``False`` and the simulator guards every hook call behind that
flag, so an unobserved run pays one boolean test per handled event and
stays bit-identical to the pre-observability behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.obs.profile import NULL_SPAN, Profiler

if TYPE_CHECKING:  # build_observer imports the parts it constructs
    from repro.obs.monitor import RunMonitor
    from repro.obs.registry import Gauge, MetricsRegistry
    from repro.obs.timeseries import TimeSeriesCollector
    from repro.obs.tracer import EventTracer


class Observer:
    """Routes simulator lifecycle hooks to the attached components."""

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
        profiler: Optional[Profiler] = None,
        timeseries: Optional[TimeSeriesCollector] = None,
        monitor: Optional[RunMonitor] = None,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.profiler = profiler
        self.timeseries = timeseries
        self.monitor = monitor
        #: Running total of bytes held across caches, maintained from
        #: cache_op sizes so the time-series occupancy gauge is exact.
        self._cache_bytes = 0
        self._g_queues: Dict[str, Gauge] = {}
        if registry is not None:
            c = registry.counter
            self._c_publish = c("repro_publishes_total", "pages published")
            self._c_match = c("repro_matches_total", "per-proxy subscription matches")
            self._c_offer = c("repro_push_offers_total", "push-time placement offers")
            self._c_accept = c("repro_push_accepts_total", "push offers stored")
            self._c_reject = c("repro_push_rejects_total", "push offers declined")
            self._c_suppressed = c(
                "repro_pushes_suppressed_total", "pushes skipped: endpoint down"
            )
            self._c_request = c("repro_requests_total", "user requests")
            self._c_hit = c("repro_hits_total", "fresh local hits")
            self._c_stale = c("repro_stale_hits_total", "stale-version misses")
            self._c_miss = c("repro_misses_total", "cold misses")
            self._c_fetch = c("repro_fetches_total", "origin demand fetches")
            self._c_peer = c("repro_peer_fetches_total", "misses served by a peer")
            self._c_failover = c("repro_failovers_total", "failover hops taken")
            self._c_retry = c("repro_retries_total", "origin retry attempts")
            self._c_failed = c("repro_failed_requests_total", "requests never served")
            self._c_drop = c(
                "repro_notification_drops_total", "notification sends lost"
            )
            self._c_retransmit = c(
                "repro_notification_retransmits_total", "notification retransmissions"
            )
            self._c_lost = c(
                "repro_notifications_lost_total", "notifications permanently lost"
            )
            self._c_dup = c(
                "repro_duplicate_notifications_total", "duplicate deliveries suppressed"
            )
            self._c_gap = c(
                "repro_delivery_gaps_total", "sequence gaps detected at proxies"
            )
            self._c_stale_served = c(
                "repro_stale_served_total", "silently stale pages served"
            )
            self._c_repair = c(
                "repro_repair_fetches_total", "access-time staleness repairs"
            )
            self._c_lease_sub = c(
                "repro_lease_subscribes_total", "leases granted (subscribes)"
            )
            self._c_lease_renew = c(
                "repro_lease_renewals_total", "in-time lease renewals"
            )
            self._c_lease_unsub = c(
                "repro_lease_unsubscribes_total", "explicit unsubscribes"
            )
            self._c_lease_confirm = c(
                "repro_lease_confirms_total", "handshake confirmations resolved"
            )
            self._c_lease_expire = c(
                "repro_lease_expiries_total", "leases noticed lapsed"
            )
            self._c_handshake_lost = c(
                "repro_handshakes_lost_total", "confirmation handshakes abandoned"
            )
            self._c_repoll = c(
                "repro_repolls_total", "access-time lease re-poll repairs"
            )
            self._c_ov_shed = c(
                "repro_overload_sheds_total", "pushes shed at full service queues"
            )
            self._c_ov_reject = c(
                "repro_overload_rejections_total",
                "pulls rejected at full service queues",
            )
            self._c_ov_stale = c(
                "repro_overload_stale_served_total",
                "stale copies served while the origin gate refused fetches",
            )
            self._c_retry_denied = c(
                "repro_retries_denied_total", "retries refused by the retry budget"
            )
            self._c_evict = c("repro_evictions_total", "cache evictions")
            self._c_evict_bytes = c("repro_evicted_bytes_total", "bytes evicted")
            self._c_crash = c("repro_proxy_crashes_total", "proxy crash events")
            self._c_restart = c("repro_proxy_restarts_total", "proxy restarts")
            self._c_outage = c("repro_publisher_outages_total", "origin outages")
            self._c_cache_add = c(
                "repro_cache_insertions_total", "entries inserted into any cache"
            )
            self._c_cache_remove = c(
                "repro_cache_removals_total", "entries removed from any cache"
            )
            self._g_sim_time = registry.gauge(
                "repro_sim_time_seconds", "virtual clock at run end"
            )
            self._g_cache_used = registry.gauge(
                "repro_cache_used_bytes", "bytes cached across proxies at run end"
            )
            self._h_latency = registry.histogram(
                "repro_request_latency_seconds", "modelled per-request response time"
            )

    # -- run framing --------------------------------------------------------

    def run_start(self, **context) -> None:
        """A simulation run begins; ``context`` tags every trace event."""
        if self.tracer is not None:
            self.tracer.bind(**context)
            self.tracer.emit("run_start", 0.0, **context)
        if self.monitor is not None:
            self.monitor.start()

    def run_end(self, t: float, cache_used_bytes: Optional[int] = None) -> None:
        if self.registry is not None:
            self._g_sim_time.set(t)
            if cache_used_bytes is not None:
                self._g_cache_used.set(cache_used_bytes)
        if self.tracer is not None:
            self.tracer.emit("run_end", t)
        if self.monitor is not None:
            self.monitor.finish(t)

    # -- publish-side lifecycle ---------------------------------------------

    def publish(self, t: float, page: int, version: int, size: int) -> None:
        if self.registry is not None:
            self._c_publish.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "publishes")
        if self.tracer is not None:
            self.tracer.emit("publish", t, page=page, version=version, size=size)

    def match(self, t: float, page: int, proxy: int, match_count: int) -> None:
        if self.registry is not None:
            self._c_match.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "matches")
        if self.tracer is not None:
            self.tracer.emit("match", t, page=page, proxy=proxy, matches=match_count)

    def push_offer(self, t: float, page: int, proxy: int) -> None:
        if self.registry is not None:
            self._c_offer.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "push_offers")
        if self.tracer is not None:
            self.tracer.emit("push_offer", t, page=page, proxy=proxy)

    def push_accept(self, t: float, page: int, proxy: int, refreshed: bool) -> None:
        if self.registry is not None:
            self._c_accept.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "push_accepts")
        if self.tracer is not None:
            self.tracer.emit(
                "push_accept", t, page=page, proxy=proxy, refreshed=refreshed
            )

    def push_reject(self, t: float, page: int, proxy: int) -> None:
        if self.registry is not None:
            self._c_reject.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "push_rejects")
        if self.tracer is not None:
            self.tracer.emit("push_reject", t, page=page, proxy=proxy)

    def push_suppressed(self, t: float, page: int, proxy: int, reason: str) -> None:
        if self.registry is not None:
            self._c_suppressed.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "pushes_suppressed")
        if self.tracer is not None:
            self.tracer.emit(
                "push_suppressed", t, page=page, proxy=proxy, reason=reason
            )

    # -- request-side lifecycle ----------------------------------------------

    def request(self, t: float, page: int, proxy: int) -> None:
        if self.registry is not None:
            self._c_request.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "requests")
        if self.tracer is not None:
            self.tracer.emit("request", t, page=page, proxy=proxy)

    def request_outcome(
        self, t: float, page: int, proxy: int, kind: str, latency: float
    ) -> None:
        """``kind`` is ``"hit"``, ``"stale"`` or ``"miss"``."""
        if self.registry is not None:
            if kind == "hit":
                self._c_hit.inc()
            elif kind == "stale":
                self._c_stale.inc()
            else:
                self._c_miss.inc()
            self._h_latency.observe(latency)
        if self.timeseries is not None:
            if kind == "hit":
                self.timeseries.inc(t, "hits")
            elif kind == "stale":
                self.timeseries.inc(t, "stale_hits")
            else:
                self.timeseries.inc(t, "misses")
            self.timeseries.observe(t, "latency", latency)
        if self.tracer is not None:
            self.tracer.emit(kind, t, page=page, proxy=proxy, latency=latency)

    def fetch(self, t: float, page: int, proxy: int, source: str = "origin") -> None:
        if self.registry is not None:
            if source == "origin":
                self._c_fetch.inc()
            else:
                self._c_peer.inc()
        if self.timeseries is not None:
            self.timeseries.inc(
                t, "origin_fetches" if source == "origin" else "peer_fetches"
            )
        if self.tracer is not None:
            kind = "fetch" if source == "origin" else "peer_fetch"
            self.tracer.emit(kind, t, page=page, proxy=proxy, source=source)

    # -- degradation ---------------------------------------------------------

    def failover(
        self, t: float, proxy: int, page: int, target: str, reason: str
    ) -> None:
        if self.registry is not None:
            self._c_failover.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "failovers")
        if self.tracer is not None:
            self.tracer.emit(
                "failover", t, page=page, proxy=proxy, target=target, reason=reason
            )

    def retry(
        self, t: float, page: int, proxy: int, attempt: int, backoff: float
    ) -> None:
        if self.registry is not None:
            self._c_retry.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "retries")
        if self.tracer is not None:
            self.tracer.emit(
                "retry", t, page=page, proxy=proxy, attempt=attempt, backoff=backoff
            )

    def failed(self, t: float, page: int, proxy: int) -> None:
        if self.registry is not None:
            self._c_failed.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "failed_requests")
        if self.tracer is not None:
            self.tracer.emit("failed", t, page=page, proxy=proxy)

    # -- reliable delivery ----------------------------------------------------

    def notification_sent(self, t: float, page: int, proxy: int) -> None:
        """A notification left the delivery layer toward ``proxy``.

        Time-series only: the registry already derives send totals from
        offers/drops, but the per-window delivery *ratio* needs an
        explicit sent series to divide by.
        """
        if self.timeseries is not None:
            self.timeseries.inc(t, "notifications_sent")

    def notification_delivered(self, t: float, page: int, proxy: int) -> None:
        """A notification arrived at ``proxy`` (time-series only)."""
        if self.timeseries is not None:
            self.timeseries.inc(t, "notifications_delivered")

    def delivery_drop(self, t: float, page: int, proxy: int, reason: str) -> None:
        """One notification send was lost (it may still be retransmitted)."""
        if self.registry is not None:
            self._c_drop.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "delivery_drops")
        if self.tracer is not None:
            self.tracer.emit(
                "delivery_drop", t, page=page, proxy=proxy, reason=reason
            )

    def delivery_retransmit(
        self, t: float, page: int, proxy: int, attempts: int
    ) -> None:
        """A notification needed ``attempts - 1`` retransmissions."""
        if self.registry is not None:
            self._c_retransmit.inc(attempts - 1)
        if self.timeseries is not None:
            self.timeseries.inc(t, "delivery_retransmits", attempts - 1)
        if self.tracer is not None:
            self.tracer.emit(
                "delivery_retransmit", t, page=page, proxy=proxy, attempts=attempts
            )

    def delivery_lost(self, t: float, page: int, proxy: int, reason: str) -> None:
        """A notification was abandoned: the proxy will stay stale until
        repair."""
        if self.registry is not None:
            self._c_lost.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "delivery_lost")
        if self.tracer is not None:
            self.tracer.emit(
                "delivery_lost", t, page=page, proxy=proxy, reason=reason
            )

    def delivery_dup(self, t: float, page: int, proxy: int) -> None:
        if self.registry is not None:
            self._c_dup.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "delivery_dups")
        if self.tracer is not None:
            self.tracer.emit("delivery_dup", t, page=page, proxy=proxy)

    def delivery_gap(self, t: float, page: int, proxy: int, sequence: int) -> None:
        if self.registry is not None:
            self._c_gap.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "delivery_gaps")
        if self.tracer is not None:
            self.tracer.emit(
                "delivery_gap", t, page=page, proxy=proxy, sequence=sequence
            )

    def stale_served(self, t: float, page: int, proxy: int, age: float) -> None:
        """A silently stale page was served as if fresh (no repair)."""
        if self.registry is not None:
            self._c_stale_served.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "stale_served")
        if self.tracer is not None:
            self.tracer.emit("stale_served", t, page=page, proxy=proxy, age=age)

    def repair(self, t: float, page: int, proxy: int, age: float) -> None:
        """Access-time validation caught a missed push; origin repair."""
        if self.registry is not None:
            self._c_repair.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "repairs")
        if self.tracer is not None:
            self.tracer.emit("repair", t, page=page, proxy=proxy, age=age)

    # -- subscription lifecycle -------------------------------------------------

    def lease_subscribe(self, t: float, page: int, proxy: int, lease: float) -> None:
        """A (re-)subscribe granted a fresh lease of ``lease`` seconds."""
        if self.registry is not None:
            self._c_lease_sub.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "lease_subscribes")
        if self.tracer is not None:
            self.tracer.emit("subscribe", t, page=page, proxy=proxy, lease=lease)

    def lease_renewed(self, t: float, page: int, proxy: int, lease: float) -> None:
        if self.registry is not None:
            self._c_lease_renew.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "lease_renewals")
        if self.tracer is not None:
            self.tracer.emit("lease_renewed", t, page=page, proxy=proxy, lease=lease)

    def lease_unsubscribe(self, t: float, page: int, proxy: int) -> None:
        if self.registry is not None:
            self._c_lease_unsub.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "lease_unsubscribes")
        if self.tracer is not None:
            self.tracer.emit("unsubscribe", t, page=page, proxy=proxy)

    def lease_confirmed(
        self, t: float, page: int, proxy: int, latency: float
    ) -> None:
        """The confirmation handshake resolved ``latency`` seconds after
        the subscribe/renew message (0 on a lossless handshake)."""
        if self.registry is not None:
            self._c_lease_confirm.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "lease_confirms")
        if self.tracer is not None:
            self.tracer.emit(
                "lease_confirmed", t, page=page, proxy=proxy, latency=latency
            )

    def lease_expired(self, t: float, page: int, proxy: int, where: str) -> None:
        """A lapsed lease was noticed (lazily) at ``where``: publish,
        access, event intake, or end-of-run accounting."""
        if self.registry is not None:
            self._c_lease_expire.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "lease_expiries")
        if self.tracer is not None:
            self.tracer.emit("lease_expired", t, page=page, proxy=proxy, where=where)

    def handshake_lost(self, t: float, page: int, proxy: int, attempts: int) -> None:
        """Every confirmation attempt was lost (or the retry queue shed
        the handshake); the lease is stuck PENDING until re-poll."""
        if self.registry is not None:
            self._c_handshake_lost.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "handshakes_lost")
        if self.tracer is not None:
            self.tracer.emit(
                "handshake_lost", t, page=page, proxy=proxy, attempts=attempts
            )

    def repoll(self, t: float, page: int, proxy: int, reason: str) -> None:
        """An access re-polled the hub and repaired a dead lease."""
        if self.registry is not None:
            self._c_repoll.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "repolls")
        if self.tracer is not None:
            self.tracer.emit("repoll", t, page=page, proxy=proxy, reason=reason)

    # -- overload & backpressure -------------------------------------------------

    def overload_shed(self, t: float, page: int, proxy: int, kind: str) -> None:
        """A push was shed at ``proxy``'s full service queue.

        ``kind`` names the shed work class (currently always
        ``"push"`` — subscribed-push deliveries shed first under the
        priority order).  The dropped copy is healed later by
        access-time staleness repair.
        """
        if self.registry is not None:
            self._c_ov_shed.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "overload_sheds")
        if self.tracer is not None:
            self.tracer.emit("overload_shed", t, page=page, proxy=proxy, kind=kind)

    def overload_reject(self, t: float, page: int, proxy: int) -> None:
        """A pull was rejected at ``proxy``'s full service queue."""
        if self.registry is not None:
            self._c_ov_reject.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "overload_rejections")
        if self.tracer is not None:
            self.tracer.emit("overload_reject", t, page=page, proxy=proxy)

    def overload_stale(self, t: float, page: int, proxy: int) -> None:
        """Degraded mode served a cached stale copy: the origin gate
        (token bucket + circuit breaker) refused the fetch."""
        if self.registry is not None:
            self._c_ov_stale.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "overload_stale_served")
        if self.tracer is not None:
            self.tracer.emit("overload_stale", t, page=page, proxy=proxy)

    def retry_denied(self, t: float, page: int, proxy: int, attempt: int) -> None:
        """The global retry budget refused retry ``attempt``."""
        if self.registry is not None:
            self._c_retry_denied.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "retries_denied")
        if self.tracer is not None:
            self.tracer.emit(
                "retry_denied", t, page=page, proxy=proxy, attempt=attempt
            )

    # -- queue telemetry ---------------------------------------------------------

    def queue_depth(self, t: float, name: str, depth: int) -> None:
        """Sample the depth of a named internal queue (retransmit
        backlog, handshake retry queue, ...).  Gauge-only: no trace
        event, so sampling is cheap enough to do per intake."""
        if self.registry is not None:
            gauge = self._g_queues.get(name)
            if gauge is None:
                gauge = self.registry.gauge(
                    f"repro_{name}_queue_depth", f"{name} queue backlog"
                )
                self._g_queues[name] = gauge
            gauge.set(depth)
        if self.timeseries is not None:
            self.timeseries.set_gauge(t, f"{name}_queue_depth", depth)

    # -- cache churn -----------------------------------------------------------

    def evict(self, t: float, page: int, proxy: int, size: int, cause: str) -> None:
        if self.registry is not None:
            self._c_evict.inc()
            self._c_evict_bytes.inc(size)
        if self.timeseries is not None:
            self.timeseries.inc(t, "evictions")
            self.timeseries.inc(t, "evicted_bytes", size)
        if self.tracer is not None:
            self.tracer.emit("evict", t, page=page, proxy=proxy, size=size, cause=cause)

    def cache_op(self, op: str, size: int = 0, t: float = 0.0) -> None:
        """Raw storage add/remove, wired via the CacheStorage listener."""
        if self.registry is not None:
            if op == "add":
                self._c_cache_add.inc()
            else:
                self._c_cache_remove.inc()
        if self.timeseries is not None:
            if op == "add":
                self._cache_bytes += size
                self.timeseries.inc(t, "cache_insertions")
            else:
                self._cache_bytes -= size
                self.timeseries.inc(t, "cache_removals")
            self.timeseries.set_gauge(t, "cache_used_bytes", self._cache_bytes)

    # -- component faults ------------------------------------------------------

    def crash(self, t: float, proxy: int) -> None:
        if self.registry is not None:
            self._c_crash.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "crashes")
        if self.tracer is not None:
            self.tracer.emit("crash", t, proxy=proxy)

    def restart(self, t: float, proxy: int) -> None:
        if self.registry is not None:
            self._c_restart.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "restarts")
        if self.tracer is not None:
            self.tracer.emit("restart", t, proxy=proxy)

    def outage(self, t: float) -> None:
        if self.registry is not None:
            self._c_outage.inc()
        if self.timeseries is not None:
            self.timeseries.inc(t, "outages")
        if self.tracer is not None:
            self.tracer.emit("outage", t)

    def outage_end(self, t: float) -> None:
        if self.timeseries is not None:
            self.timeseries.inc(t, "outage_ends")
        if self.tracer is not None:
            self.tracer.emit("outage_end", t)

    # -- profiling --------------------------------------------------------------

    def span(self, name: str):
        """A timing span, or a no-op when no profiler is attached."""
        if self.profiler is None:
            return NULL_SPAN
        return self.profiler.span(name)

    def close(self) -> None:
        """Flush/close every attached sink (idempotent)."""
        if self.tracer is not None:
            self.tracer.close()
        if self.timeseries is not None:
            self.timeseries.close()
        if self.monitor is not None:
            self.monitor.close()


class NullObserver(Observer):
    """The disabled default: every hook is a no-op.

    The simulator additionally guards hook calls behind ``enabled``, so
    with this observer the only per-event cost is that boolean test.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str):
        return NULL_SPAN


#: Shared module-level no-op recorder; the default for every run.
NULL_OBSERVER = NullObserver()


def build_observer(
    trace_out: Optional[str] = None,
    metrics: bool = False,
    profile: bool = False,
    trace_pages=None,
    trace_proxies=None,
    max_events: int = 100_000,
    series: bool = False,
    series_out: Optional[str] = None,
    series_window: float = 3600.0,
    series_max_windows: int = 256,
    monitor: Optional[float] = None,
    monitor_out: Optional[str] = None,
) -> Optional[Observer]:
    """Assemble an Observer from CLI-ish flags; None if nothing is on."""
    tracer = None
    if trace_out is not None:
        from repro.obs.tracer import EventTracer

        tracer = EventTracer(
            sink=trace_out,
            max_events=0,
            pages=trace_pages,
            proxies=trace_proxies,
        )
    registry = None
    if metrics:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    profiler = Profiler() if profile else None
    timeseries = None
    if series or series_out is not None:
        from repro.obs.timeseries import TimeSeriesCollector

        timeseries = TimeSeriesCollector(
            window_seconds=series_window,
            max_windows=series_max_windows,
            spill=series_out,
        )
    run_monitor = None
    if monitor is not None or monitor_out is not None:
        from repro.obs.monitor import RunMonitor

        run_monitor = RunMonitor(
            interval=monitor if monitor is not None else 5.0,
            sink=monitor_out,
        )
    if (
        tracer is None
        and registry is None
        and profiler is None
        and timeseries is None
        and run_monitor is None
    ):
        return None
    return Observer(
        registry=registry,
        tracer=tracer,
        profiler=profiler,
        timeseries=timeseries,
        monitor=run_monitor,
    )

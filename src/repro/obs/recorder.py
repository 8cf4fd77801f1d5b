"""The :class:`Observer` facade the simulator talks to.

One object bundles the observability concerns — a
:class:`~repro.obs.registry.MetricsRegistry`, an
:class:`~repro.obs.tracer.EventTracer`, a
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

from typing import TYPE_CHECKING, Callable, Dict, NamedTuple, Optional, Tuple

if TYPE_CHECKING:  # build_observer imports the parts it constructs
    from repro.obs.monitor import RunMonitor
    from repro.obs.registry import Gauge, MetricsRegistry
    from repro.obs.timeseries import TimeSeriesCollector
    from repro.obs.tracer import EventTracer


class Event(NamedTuple):
    """One row of :data:`EVENTS`: everything one event shows outside.

    ``hook`` is the :class:`Observer` method built from the row (a
    leading underscore marks a part that a hand-written hook calls, and
    ``""`` a type a hand-written hook emits itself);
    ``type`` the trace event type (``""``: no trace line); ``fields``
    the hook's parameters after ``t`` in call order, which is the order
    the trace line lists them after the bound run context; ``sections``
    the ``inspect`` / ``explain`` aggregates that read the type;
    ``counter`` / ``help`` the ``repro_*`` counter and ``series`` the
    per-window time-series counter, each bumped once per call.
    """

    hook: str
    type: str
    fields: Tuple[str, ...]
    sections: Tuple[str, ...]
    counter: str
    help: str
    series: str


def _row(hook, type, fields="", sections="", counter="", help="", series="") -> Event:
    return Event(hook, type, tuple(fields.split()), tuple(sections.split()), counter, help, series)


#: The event vocabulary, declared once.  :class:`Observer` builds one hook
#: per row — bump the counter, bump the series, write the trace line, each
#: only if that sink is attached — and ``tracer.EVENT_TYPES``, the
#: ``inspect`` / ``explain`` type sets and the docs table
#: (``tests/obs/test_event_table.py``) are read off the same rows: a new
#: event is one row here, not three edits.  What a row cannot express (a
#: histogram, an amount, a gauge, run framing) is a method of the class
#: around the row's ``_hook``.
EVENTS: Tuple[Event, ...] = (
    # -- run framing; run_start emits by hand: its fields are the context
    _row("", "run_start"),
    _row("_run_end", "run_end"),
    # -- publish-side lifecycle
    _row("publish", "publish", "page version size", "churn",
         "repro_publishes_total", "pages published", "publishes"),
    _row("match", "match", "page proxy matches", "",
         "repro_matches_total", "per-proxy subscription matches", "matches"),
    _row("push_offer", "push_offer", "page proxy", "",
         "repro_push_offers_total", "push-time placement offers", "push_offers"),
    _row("push_accept", "push_accept", "page proxy refreshed", "churn",
         "repro_push_accepts_total", "push offers stored", "push_accepts"),
    _row("push_reject", "push_reject", "page proxy", "",
         "repro_push_rejects_total", "push offers declined", "push_rejects"),
    _row("push_suppressed", "push_suppressed", "page proxy reason", "",
         "repro_pushes_suppressed_total", "pushes skipped: endpoint down", "pushes_suppressed"),
    # -- request-side lifecycle; request_outcome and fetch pick among these
    _row("request", "request", "page proxy", "",
         "repro_requests_total", "user requests", "requests"),
    _row("_hit", "hit", "page proxy latency", "outcome",
         "repro_hits_total", "fresh local hits", "hits"),
    _row("_stale", "stale", "page proxy latency", "churn outcome",
         "repro_stale_hits_total", "stale-version misses", "stale_hits"),
    _row("_miss", "miss", "page proxy latency", "churn outcome",
         "repro_misses_total", "cold misses", "misses"),
    _row("_fetch", "fetch", "page proxy source", "churn",
         "repro_fetches_total", "origin demand fetches", "origin_fetches"),
    _row("_peer_fetch", "peer_fetch", "page proxy source", "churn",
         "repro_peer_fetches_total", "misses served by a peer", "peer_fetches"),
    # -- degradation
    _row("failover", "failover", "proxy page target reason", "timeline",
         "repro_failovers_total", "failover hops taken", "failovers"),
    _row("retry", "retry", "page proxy attempt backoff", "timeline",
         "repro_retries_total", "origin retry attempts", "retries"),
    _row("failed", "failed", "page proxy", "timeline outcome",
         "repro_failed_requests_total", "requests never served", "failed_requests"),
    # -- reliable delivery.  Sent / delivered are series only: the registry
    # derives send totals from offers and drops, but the per-window
    # delivery *ratio* needs an explicit sent series to divide by.
    _row("notification_sent", "", "page proxy", series="notifications_sent"),
    _row("notification_delivered", "", "page proxy", series="notifications_delivered"),
    # One send was lost; it may still be retransmitted.
    _row("delivery_drop", "delivery_drop", "page proxy reason", "",
         "repro_notification_drops_total", "notification sends lost", "delivery_drops"),
    # delivery_retransmit counts ``attempts - 1``, an amount, itself.
    _row("_delivery_retransmit", "delivery_retransmit", "page proxy attempts", "timeline"),
    # Abandoned: the proxy stays stale until access-time repair.
    _row("delivery_lost", "delivery_lost", "page proxy reason", "timeline",
         "repro_notifications_lost_total", "notifications permanently lost", "delivery_lost"),
    _row("delivery_dup", "delivery_dup", "page proxy", "",
         "repro_duplicate_notifications_total", "duplicate deliveries suppressed", "delivery_dups"),
    _row("delivery_gap", "delivery_gap", "page proxy sequence", "",
         "repro_delivery_gaps_total", "sequence gaps detected at proxies", "delivery_gaps"),
    # Served as if fresh (no repair), ``age`` seconds behind the origin.
    _row("stale_served", "stale_served", "page proxy age", "churn",
         "repro_stale_served_total", "silently stale pages served", "stale_served"),
    _row("repair", "repair", "page proxy age", "timeline churn",
         "repro_repair_fetches_total", "access-time staleness repairs", "repairs"),
    # -- subscription lifecycle
    # A (re-)subscribe granted a fresh lease of ``lease`` seconds.
    _row("lease_subscribe", "subscribe", "page proxy lease", "lifecycle",
         "repro_lease_subscribes_total", "leases granted (subscribes)", "lease_subscribes"),
    _row("lease_renewed", "lease_renewed", "page proxy lease", "lifecycle",
         "repro_lease_renewals_total", "in-time lease renewals", "lease_renewals"),
    _row("lease_unsubscribe", "unsubscribe", "page proxy", "lifecycle",
         "repro_lease_unsubscribes_total", "explicit unsubscribes", "lease_unsubscribes"),
    # The handshake resolved ``latency`` seconds after the subscribe /
    # renew message (0 on a lossless handshake).
    _row("lease_confirmed", "lease_confirmed", "page proxy latency", "lifecycle",
         "repro_lease_confirms_total", "handshake confirmations resolved", "lease_confirms"),
    # Noticed lazily at ``where``: publish, access, event intake, or
    # end-of-run accounting.
    _row("lease_expired", "lease_expired", "page proxy where", "lifecycle",
         "repro_lease_expiries_total", "leases noticed lapsed", "lease_expiries"),
    # Every confirmation attempt was lost (or the retry queue shed the
    # handshake); the lease is stuck PENDING until re-poll.
    _row("handshake_lost", "handshake_lost", "page proxy attempts", "lifecycle",
         "repro_handshakes_lost_total", "confirmation handshakes abandoned", "handshakes_lost"),
    _row("repoll", "repoll", "page proxy reason", "lifecycle",
         "repro_repolls_total", "access-time lease re-poll repairs", "repolls"),
    # -- overload & backpressure.  The high-volume shed / reject events
    # stay out of the inspect timeline and are summarised per proxy.
    # ``kind`` names the shed work class (currently always "push":
    # subscribed-push deliveries shed first under the priority order);
    # access-time staleness repair heals the dropped copy later.
    _row("overload_shed", "overload_shed", "page proxy kind", "overload",
         "repro_overload_sheds_total", "pushes shed at full service queues", "overload_sheds"),
    _row("overload_reject", "overload_reject", "page proxy", "overload",
         "repro_overload_rejections_total",
         "pulls rejected at full service queues", "overload_rejections"),
    # Degraded mode: the origin gate (token bucket + circuit breaker)
    # refused the fetch and a cached stale copy was served.
    _row("overload_stale", "overload_stale", "page proxy", "timeline overload",
         "repro_overload_stale_served_total",
         "stale copies served while the origin gate refused fetches", "overload_stale_served"),
    _row("retry_denied", "retry_denied", "page proxy attempt", "timeline overload",
         "repro_retries_denied_total", "retries refused by the retry budget", "retries_denied"),
    # -- cache churn; evict adds the evicted bytes, cache_op (the raw
    # storage listener) picks a row and drives the occupancy gauge
    _row("_evict", "evict", "page proxy size cause", "churn",
         "repro_evictions_total", "cache evictions", "evictions"),
    _row("_cache_add", "", "", "",
         "repro_cache_insertions_total", "entries inserted into any cache", "cache_insertions"),
    _row("_cache_remove", "", "", "",
         "repro_cache_removals_total", "entries removed from any cache", "cache_removals"),
    # -- component faults
    _row("crash", "crash", "proxy", "timeline",
         "repro_proxy_crashes_total", "proxy crash events", "crashes"),
    _row("restart", "restart", "proxy", "timeline",
         "repro_proxy_restarts_total", "proxy restarts", "restarts"),
    _row("outage", "outage", "", "timeline",
         "repro_publisher_outages_total", "origin outages", "outages"),
    _row("outage_end", "outage_end", "", sections="timeline", series="outage_ends"),
)


def event_types(section: Optional[str] = None) -> frozenset:
    """The trace types of :data:`EVENTS`: all of them, or one section's."""
    return frozenset(
        row.type for row in EVENTS if row.type and (section is None or section in row.sections)
    )


def _ignore(*_values, **_fields) -> None:
    """A row's hook when no sink of its is attached (``NULL_OBSERVER``'s, built at import)."""


def _hook(row: Event, registry, timeseries, tracer) -> Callable[..., None]:
    """Compile ``row``'s hook over the sinks it has something to tell.

    Compiled so that it has the signature a hand-written hook would
    (``failover(t, proxy, page, target, reason)``): Python checks each
    call's arity and keywords, and a traced event costs what it did by
    hand (a closure over ``*values, **fields`` measured 2.6x that).
    """
    scope: Dict[str, object] = {"etype": row.type, "series": row.series}
    body = []
    if registry is not None and row.counter:
        scope["count"] = registry.counter(row.counter, row.help).inc
        body.append("count()")
    if timeseries is not None and row.series:
        scope["sample"] = timeseries.inc
        body.append("sample(t, series)")
    if tracer is not None and row.type:
        scope["emit"] = tracer.emit
        body.append(f"emit(etype, t, {', '.join(f'{name}={name}' for name in row.fields)})")
    if not body:
        return _ignore
    exec(f"def hook({', '.join(('t',) + row.fields)}):\n    " + "\n    ".join(body), scope)
    return scope["hook"]


class Observer:
    """Routes simulator lifecycle hooks to the attached components.

    The regular hooks (``publish``, ``push_offer``, ``lease_renewed``,
    ``crash`` ...) are built from :data:`EVENTS` at construction, over
    the sinks this observer was given; the methods below add what a row
    cannot express.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[EventTracer] = None,
        timeseries: Optional[TimeSeriesCollector] = None,
        monitor: Optional[RunMonitor] = None,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.timeseries = timeseries
        self.monitor = monitor
        #: Running total of bytes held across caches, maintained from
        #: cache_op sizes so the time-series occupancy gauge is exact.
        self._cache_bytes = 0
        self._g_queues: Dict[str, Gauge] = {}
        # Hooks bind sinks, not runs: ``repro-pubsub chaos`` shares one
        # observer across strategy runs (counters accumulate, the tracer
        # is re-bound per run by run_start).
        for row in EVENTS:
            if row.hook:
                setattr(self, row.hook, _hook(row, registry, timeseries, tracer))
        if registry is not None:
            self._c_retransmit = registry.counter(
                "repro_notification_retransmits_total", "notification retransmissions"
            )
            self._c_evict_bytes = registry.counter("repro_evicted_bytes_total", "bytes evicted")
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
        self._run_end(t)
        if self.monitor is not None:
            self.monitor.finish(t)

    # -- hooks that choose among rows -----------------------------------------

    def request_outcome(
        self, t: float, page: int, proxy: int, kind: str, latency: float
    ) -> None:
        """``kind`` is ``"hit"``, ``"stale"`` or ``"miss"``."""
        if kind == "hit":
            self._hit(t, page, proxy, latency)
        elif kind == "stale":
            self._stale(t, page, proxy, latency)
        else:
            self._miss(t, page, proxy, latency)
        if self.registry is not None:
            self._h_latency.observe(latency)
        if self.timeseries is not None:
            self.timeseries.observe(t, "latency", latency)

    def fetch(self, t: float, page: int, proxy: int, source: str = "origin") -> None:
        (self._fetch if source == "origin" else self._peer_fetch)(t, page, proxy, source)

    # -- hooks that add an amount ---------------------------------------------

    def delivery_retransmit(
        self, t: float, page: int, proxy: int, attempts: int
    ) -> None:
        """A notification needed ``attempts - 1`` retransmissions."""
        if self.registry is not None:
            self._c_retransmit.inc(attempts - 1)
        if self.timeseries is not None:
            self.timeseries.inc(t, "delivery_retransmits", attempts - 1)
        self._delivery_retransmit(t, page, proxy, attempts)

    def evict(self, t: float, page: int, proxy: int, size: int, cause: str) -> None:
        self._evict(t, page, proxy, size, cause)
        if self.registry is not None:
            self._c_evict_bytes.inc(size)
        if self.timeseries is not None:
            self.timeseries.inc(t, "evicted_bytes", size)

    # -- hooks that drive gauges ------------------------------------------------

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

    def cache_op(self, op: str, size: int = 0, t: float = 0.0) -> None:
        """Raw storage add/remove, wired via the CacheStorage listener."""
        (self._cache_add if op == "add" else self._cache_remove)(t)
        if self.timeseries is not None:
            self._cache_bytes += size if op == "add" else -size
            self.timeseries.set_gauge(t, "cache_used_bytes", self._cache_bytes)

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


#: Shared module-level no-op recorder; the default for every run.
NULL_OBSERVER = NullObserver()


def build_observer(
    trace_out: Optional[str] = None,
    metrics: bool = False,
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
        and timeseries is None
        and run_monitor is None
    ):
        return None
    return Observer(
        registry=registry,
        tracer=tracer,
        timeseries=timeseries,
        monitor=run_monitor,
    )

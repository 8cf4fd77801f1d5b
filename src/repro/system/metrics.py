"""Simulation results: the paper's metrics (§5.1).

* **Global hit ratio H** (eq. 8): total hits over total requests across
  all proxies.
* **Hourly hit ratio** (Fig. 6): H restricted to each hour's requests.
* **Traffic** (Fig. 7): pages (and bytes) transferred from the
  publisher to proxies per hour, split into push transfers and
  demand fetches.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional

from repro.cache.stats import CacheStats


def dense_clamped(values_by_hour: Dict[int, float], hour_count: int) -> List[float]:
    """Render a sparse per-hour dict as a dense ``hour_count``-long list.

    Out-of-range hours are *clamped* into the boundary buckets instead
    of being silently dropped: an event stamped at exactly the horizon
    (hour index == ``hour_count``, e.g. a request whose backed-off
    retry resolves right at the end of the run) lands in the final
    bucket, so every dense series accounts for every event and all the
    hourly lists share one length.
    """
    if hour_count <= 0:
        return []
    out = [0.0] * hour_count
    last = hour_count - 1
    for hour, amount in values_by_hour.items():
        out[min(max(hour, 0), last)] += amount
    return out


def dense_counts(values_by_hour: Dict[int, int], hour_count: int) -> List[int]:
    """:func:`dense_clamped` for an integer series (counts, bytes)."""
    return [int(value) for value in dense_clamped(values_by_hour, hour_count)]


#: Staleness-age histogram bin edges (seconds): a sample falls in the
#: first bin whose edge it does not exceed; ages beyond the last edge
#: land in a final overflow bin.
STALENESS_AGE_BIN_EDGES: List[float] = [
    60.0,
    300.0,
    900.0,
    3600.0,
    4 * 3600.0,
    24 * 3600.0,
]


def staleness_age_bin(age: float) -> int:
    """Histogram bin index for one staleness-age sample (seconds)."""
    for index, edge in enumerate(STALENESS_AGE_BIN_EDGES):
        if age <= edge:
            return index
    return len(STALENESS_AGE_BIN_EDGES)


#: Renewal-latency histogram bin edges (seconds from renew/subscribe to
#: confirmation); a lossless handshake confirms at latency 0.  The last
#: bin is the overflow beyond the final edge.
RENEWAL_LATENCY_BIN_EDGES: List[float] = [0.5, 1.0, 2.0, 5.0, 15.0, 60.0]


# -- the result's JSON form -------------------------------------------------
#
# Generic over ``dataclasses.fields`` and their type hints, so a new result
# field is stored and loaded without being named here.  A dataclass becomes
# an object keyed by field name, a list a list, and a dict a list of
# ``[key, value]`` items (JSON would stringify the ``int`` keys of
# ``CacheStats.bucketed_*``).  Decoding refuses anything the hint does not
# describe — the artifact store treats that as a damaged entry.  A warm grid
# spends its time here, so a codec is compiled once per hint and containers
# of scalars are passed through (checked by ``set(map(type, ...))`` on the
# way in), not rebuilt item by item.

#: Scalar hints and the exact types each admits: a float field may hold
#: an int (a ``0`` default, a sum of counts), nothing may hold a bool.
_SCALARS = {int: {int}, float: {float, int}, str: {str}}


def _same(value):
    return value


@lru_cache(maxsize=None)
def _codec(hint):
    """``(encode, decode)`` between a value of type ``hint`` and JSON data."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)

    def wrong(value):
        return TypeError(f"expected {hint}, got {value!r:.80}")

    if hint in _SCALARS:
        types = _SCALARS[hint]
        encode = _same

        def decode(value):
            if type(value) in types:
                return value
            raise wrong(value)

    elif origin is typing.Union:  # Optional[...]
        ((inner_encode, inner_decode),) = (
            _codec(arg) for arg in args if arg is not type(None)
        )

        def encode(value):
            return None if value is None else inner_encode(value)

        def decode(value):
            return None if value is None else inner_decode(value)

    elif dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        codecs = {
            spec.name: _codec(hints[spec.name]) for spec in dataclasses.fields(hint)
        }

        def encode(value):
            return {
                name: field_encode(getattr(value, name))
                for name, (field_encode, _) in codecs.items()
            }

        def decode(value):
            if type(value) is not dict or value.keys() != codecs.keys():
                raise ValueError(f"not the fields of a {hint.__name__}: {value!r:.80}")
            return hint(
                **{
                    name: field_decode(value[name])
                    for name, (_, field_decode) in codecs.items()
                }
            )

    elif origin is list:
        types = _SCALARS.get(args[0])
        item_encode, item_decode = _codec(args[0])

        def encode(value):
            return value if types else [item_encode(item) for item in value]

        def decode(value):
            if type(value) is not list:
                raise wrong(value)
            if types is None:
                return [item_decode(item) for item in value]
            if set(map(type, value)) <= types:
                return value
            raise wrong(value)

    elif origin is dict:
        key_types, item_types = (_SCALARS.get(arg) for arg in args)
        (key_encode, key_decode), (item_encode, item_decode) = map(_codec, args)
        scalars = key_types is not None and item_types is not None

        def encode(value):
            if scalars:
                return list(map(list, value.items()))
            return [[key_encode(k), item_encode(v)] for k, v in value.items()]

        def decode(value):
            if type(value) is not list:
                raise wrong(value)
            if not scalars:
                return {key_decode(k): item_decode(v) for k, v in value}
            decoded = dict(value)
            if (
                len(decoded) == len(value)
                and set(map(type, decoded)) <= key_types
                and set(map(type, decoded.values())) <= item_types
            ):
                return decoded
            raise wrong(value)

    else:  # a hint this codec was never taught: fail at the first result
        raise TypeError(f"no JSON form for a field of type {hint}")
    return encode, decode


@dataclass
class SimulationResult:
    """Everything one run produces."""

    strategy: str
    trace_label: str
    capacity_fraction: float
    subscription_quality: float
    pushing_scheme: str
    requests: int
    hits: int
    stale_hits: int
    push_transfers: int
    push_bytes: int
    fetch_pages: int
    fetch_bytes: int
    hour_count: int
    hourly_requests: List[int]
    hourly_hits: List[int]
    hourly_push_pages: List[int]
    hourly_fetch_pages: List[int]
    hourly_push_bytes: List[int]
    hourly_fetch_bytes: List[int]
    per_proxy: List[CacheStats] = field(default_factory=list, repr=False)
    wall_seconds: float = 0.0
    #: Self time and calls per ``repro`` package
    #: (``{package: {"calls": n, "seconds": s}}``) when ``run --profile``
    #: ran the cell under cProfile (:mod:`repro.obs.profile`); ``None``
    #: otherwise.  Excluded — like ``wall_seconds`` — from bit-identity
    #: comparisons.
    profile: Optional[Dict[str, Dict[str, float]]] = None
    #: Sum of modelled per-request response times (seconds).
    total_response_time: float = 0.0
    #: Misses served by a peer proxy (cooperative extension only).
    peer_fetch_pages: int = 0
    peer_fetch_bytes: int = 0

    # -- fault-injection metrics (all zero on a healthy run) ---------------

    #: Requests that could not be served at all (origin retries
    #: exhausted during a publisher outage).
    failed_requests: int = 0
    #: Requests served, but not at full service level: proxy-down
    #: failover to the origin, backed-off retries, dead-peer timeouts,
    #: or a degraded link.
    degraded_requests: int = 0
    hourly_failed: List[int] = field(default_factory=list)
    hourly_degraded: List[int] = field(default_factory=list)
    #: Proxy crash events and their cumulative downtime.
    proxy_crashes: int = 0
    proxy_downtime_seconds: float = 0.0
    #: Cumulative origin unreachability.
    publisher_outage_seconds: float = 0.0
    #: Push placements skipped because the target proxy or the origin
    #: was down at publish time.
    pushes_suppressed: int = 0
    #: Per-crash seconds from recovery until the cache re-warmed; one
    #: sample per recovery that reached the warm threshold.
    time_to_warm_seconds: List[float] = field(default_factory=list)
    #: Recoveries that never reached the warm threshold again.
    unwarmed_recoveries: int = 0
    #: Post-recovery served-request/hit counts bucketed by time since
    #: recovery (the hit-ratio recovery curve), aggregated over crashes.
    recovery_curve_requests: List[int] = field(default_factory=list)
    recovery_curve_hits: List[int] = field(default_factory=list)
    recovery_bin_seconds: float = 0.0

    # -- reliable-delivery metrics (all zero on a healthy run) -------------

    #: Notifications the publisher attempted to push (one per matched
    #: proxy per publication, origin-up only).
    notifications_sent: int = 0
    #: Notifications that reached their proxy (possibly retransmitted).
    notifications_delivered: int = 0
    #: Notifications abandoned: retries exhausted, queue overflow, or
    #: the copy arrived at a crashed proxy.
    notifications_lost: int = 0
    #: Individual sends that were lost (a retransmitted-then-delivered
    #: notification contributes its per-attempt losses here).
    notification_loss_events: int = 0
    #: Retransmission sends performed beyond first transmissions.
    notifications_retransmitted: int = 0
    #: Duplicate arrivals suppressed by proxy sequence tracking.
    duplicate_notifications: int = 0
    #: Sequence gaps detected at proxies (a missed earlier version).
    delivery_gaps_detected: int = 0
    #: Losses abandoned because the retransmit queue was full.
    retransmit_queue_overflows: int = 0
    #: Requests answered with a silently stale copy the proxy believed
    #: current (no-repair baseline, or repair with the origin down).
    stale_hits_served: int = 0
    #: Access-time sequence validations performed (repair enabled).
    staleness_validations: int = 0
    #: Missed pushes healed by an access-time origin fetch.
    repair_fetches: int = 0
    repair_bytes: int = 0
    hourly_stale_served: List[int] = field(default_factory=list)
    hourly_repair_pages: List[int] = field(default_factory=list)
    hourly_repair_bytes: List[int] = field(default_factory=list)
    #: Staleness-age histogram over served/repaired stale copies:
    #: ``counts[i]`` samples with age <= ``edges[i]`` (last bin is the
    #: overflow beyond the final edge, so len(counts) == len(edges)+1).
    staleness_age_bin_edges: List[float] = field(default_factory=list)
    staleness_age_counts: List[int] = field(default_factory=list)

    # -- subscription-lifecycle metrics (all zero without churn) -----------

    #: Lifecycle trace records processed (subscribe + renew + unsubscribe).
    lifecycle_events: int = 0
    #: Fresh leases granted (initial and comeback subscribes).
    leases_granted: int = 0
    #: In-time lease renewals.
    leases_renewed: int = 0
    #: Leases that lapsed (noticed lazily at publish/access/run end).
    leases_expired: int = 0
    #: Explicit unsubscribes.
    leases_unsubscribed: int = 0
    #: Individual confirmation-handshake messages lost.
    handshake_losses: int = 0
    #: Handshakes abandoned (retries exhausted or queue shed): the lease
    #: stayed PENDING until an access-time re-poll.
    handshakes_abandoned: int = 0
    #: Lapsed leases repaired by an access-time re-poll.
    lease_repolls: int = 0
    #: Stuck-PENDING handshakes resolved by an access-time re-poll.
    handshake_repairs: int = 0
    #: Re-polls that found the proxy's cached copy behind the origin —
    #: the notifications it missed while unleased had real cost.
    churn_stale_serves: int = 0
    #: Publish-side pushes suppressed for lease reasons (no lease,
    #: pending, expired, unsubscribed).
    pushes_suppressed_no_lease: int = 0
    #: Lease-state census at the end of the run.
    active_leases_end: int = 0
    pending_leases_end: int = 0
    expired_leases_end: int = 0
    #: Handshake work-queue statistics across proxies.
    lifecycle_queue_overflows: int = 0
    lifecycle_queue_peak: int = 0
    #: Confirmation-latency histogram over renewals (same edge/overflow
    #: convention as the staleness-age histogram).
    renewal_latency_bin_edges: List[float] = field(default_factory=list)
    renewal_latency_counts: List[int] = field(default_factory=list)

    # -- overload metrics (all zero with the layer off) --------------------

    #: Jobs (pushes + pulls) offered to the per-proxy service queues.
    overload_arrivals: int = 0
    #: Pushes shed because the target queue crossed the push threshold
    #: (pushes yield queue room to subscriber pulls first).
    overload_pushes_shed: int = 0
    #: Pull requests rejected at a full service queue (failed over to
    #: the cooperation chain or the origin).
    overload_pulls_rejected: int = 0
    #: Fleet-wide mean queue occupancy seen by an arrival
    #: (icarus ``AVERAGE_QUEUE_SIZE`` semantics).
    average_queue_size: float = 0.0
    #: Highest occupancy any service queue reached.
    overload_queue_peak: int = 0
    #: Per-proxy mean occupancy / rejection percentage, indexed by
    #: server id (icarus ``PERCENTAGE_OF_REJECTION`` per node).
    overload_queue_avg_by_proxy: List[float] = field(default_factory=list)
    overload_queue_rejection_by_proxy: List[float] = field(default_factory=list)
    #: Origin fetches refused by the admission gate (token bucket
    #: drained) or fast-failed by the open circuit breaker.
    origin_rejections: int = 0
    #: Circuit-breaker open transitions, cumulative open time, and the
    #: open fraction of the whole horizon.
    breaker_opens: int = 0
    breaker_open_seconds: float = 0.0
    breaker_open_fraction: float = 0.0
    #: Requests fast-failed while the breaker was open.
    breaker_fast_failures: int = 0
    #: Extra attempts granted by / refused by the global retry budget.
    retry_budget_spent: int = 0
    retries_denied: int = 0
    #: Requests answered with a cached stale copy because origin
    #: admission refused the fetch (serve-stale degraded mode).
    overload_stale_serves: int = 0

    @property
    def hit_ratio(self) -> float:
        """Global H (eq. 8), in [0, 1]."""
        if self.requests == 0:
            return 0.0
        return self.hits / self.requests

    @property
    def mean_response_time(self) -> float:
        """Modelled mean user-perceived response time (seconds).

        Hits cost ``HIT_LATENCY``; misses add ``PER_HOP_LATENCY`` per
        network hop to the publisher — the translation of hit ratio
        into user-perceived latency that motivates the paper.
        """
        if self.requests == 0:
            return 0.0
        return self.total_response_time / self.requests

    @property
    def traffic_pages(self) -> int:
        """Total publisher->proxy page transfers (push + fetch)."""
        return self.push_transfers + self.fetch_pages

    @property
    def availability(self) -> float:
        """Fraction of requests that were served at all, in [0, 1]."""
        if self.requests == 0:
            return 1.0
        return 1.0 - self.failed_requests / self.requests

    @property
    def mean_time_to_warm(self) -> Optional[float]:
        """Mean seconds from proxy recovery to a re-warmed cache.

        ``None`` when no recovery reached the warm threshold (healthy
        runs, or runs whose caches never warmed back up).
        """
        if not self.time_to_warm_seconds:
            return None
        return sum(self.time_to_warm_seconds) / len(self.time_to_warm_seconds)

    def hourly_availability(self) -> List[float]:
        """Per-hour availability; hours without requests count as 1.0."""
        if not self.hourly_failed:
            return [1.0] * len(self.hourly_requests)
        out = []
        for requested, failed in zip(self.hourly_requests, self.hourly_failed):
            out.append(1.0 - failed / requested if requested else 1.0)
        return out

    def recovery_hit_ratio_curve(self) -> List[float]:
        """Hit ratio per post-recovery bin (the time-to-warm curve).

        Bins that saw no served request yield 0.0; bin width is
        ``recovery_bin_seconds``.
        """
        return [
            hit / requested if requested else 0.0
            for requested, hit in zip(
                self.recovery_curve_requests, self.recovery_curve_hits
            )
        ]

    @property
    def notification_delivery_ratio(self) -> float:
        """Delivered over sent notifications; 1.0 with no delivery faults."""
        if self.notifications_sent == 0:
            return 1.0
        return self.notifications_delivered / self.notifications_sent

    @property
    def rejection_percentage(self) -> float:
        """Percentage of queue arrivals rejected (pushes + pulls)."""
        if self.overload_arrivals == 0:
            return 0.0
        rejected = self.overload_pushes_shed + self.overload_pulls_rejected
        return 100.0 * rejected / self.overload_arrivals

    def hourly_hit_ratio(self) -> List[float]:
        """H per hour (Fig. 6); hours without requests yield 0.0."""
        ratios = []
        for requested, hit in zip(self.hourly_requests, self.hourly_hits):
            ratios.append(hit / requested if requested else 0.0)
        return ratios

    def hourly_traffic_pages(self) -> List[int]:
        """Pages moved publisher->proxies per hour (Fig. 7)."""
        return [
            push + fetch
            for push, fetch in zip(self.hourly_push_pages, self.hourly_fetch_pages)
        ]

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize every field, ``wall_seconds`` and ``profile`` included."""
        return json.dumps(_codec(type(self))[0](self), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "SimulationResult":
        """Rebuild a result serialized with :meth:`to_json`, losslessly:
        ``dataclasses.asdict`` of the two is equal, container and key
        types included.  ``wall_seconds`` is therefore the original
        replay's, not the time it took to load.  A payload with a
        missing, extra or wrongly-typed field raises ``ValueError`` /
        ``TypeError`` rather than yield a partial result."""
        return _codec(cls)[1](json.loads(text))

    def summary(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.strategy:>7s} | {self.trace_label:<11s} "
            f"cap={self.capacity_fraction:.0%} SQ={self.subscription_quality:.2f} "
            f"{self.pushing_scheme:<14s} | H={self.hit_ratio:6.2%} "
            f"rt={1000 * self.mean_response_time:6.1f}ms "
            f"traffic={self.traffic_pages} pages "
            f"({self.push_transfers} pushed, {self.fetch_pages} fetched)"
        )
        if self.proxy_crashes or self.failed_requests or self.degraded_requests:
            warm = self.mean_time_to_warm
            warm_text = f"{warm:.0f}s" if warm is not None else "-"
            text += (
                f" | avail={self.availability:.2%} "
                f"failed={self.failed_requests} degraded={self.degraded_requests} "
                f"crashes={self.proxy_crashes} warm={warm_text}"
            )
        if self.notification_loss_events or self.notifications_lost:
            text += (
                f" | delivery={self.notification_delivery_ratio:.2%} "
                f"lost={self.notifications_lost} "
                f"retrans={self.notifications_retransmitted} "
                f"stale_served={self.stale_hits_served} "
                f"repairs={self.repair_fetches}"
            )
        if self.lifecycle_events:
            text += (
                f" | leases={self.leases_granted}+{self.leases_renewed}r"
                f"/{self.leases_expired}x "
                f"repolls={self.lease_repolls + self.handshake_repairs} "
                f"suppressed={self.pushes_suppressed_no_lease}"
            )
        if self.overload_arrivals or self.origin_rejections or self.retries_denied:
            text += (
                f" | queue~{self.average_queue_size:.2f} "
                f"rej={self.rejection_percentage:.1f}% "
                f"origin_rej={self.origin_rejections} "
                f"breaker={self.breaker_opens}x/{self.breaker_open_seconds:.0f}s "
                f"retry_denied={self.retries_denied}"
            )
        return text


def check_result(result: SimulationResult, request_count: int) -> List[str]:
    """The conservation laws ``result`` breaks (``[]``: its books balance).

    Identities between counters that *different* objects keep (policies,
    publisher, layer managers, the simulator's own books) on a run of a
    trace with ``request_count`` requests, whatever layers it armed: a
    disarmed layer's counters are zero, which makes its laws trivial;
    the two that zero counters would break are scoped below.
    """
    from repro.system.config import PushingScheme

    proxies = result.per_proxy
    policy_requests = sum(stats.requests for stats in proxies)
    #: Requests no policy saw: down-proxy failover, refused pulls, failures.
    unserved = result.requests - policy_requests
    stored_pushes = sum(stats.pages_pushed_stored for stats in proxies)
    #: What became of the notification copies that were sent.
    copy_fates = (
        result.notifications_delivered
        + result.notifications_lost
        + result.duplicate_notifications
        + result.overload_pushes_shed
    )
    laws = {
        "requests == the trace's request count": result.requests == request_count,
        "hits <= requests": result.hits <= result.requests,
        "sum(hourly_requests) == requests":
            sum(result.hourly_requests) == result.requests,
        "sum(hourly_hits) == hits": sum(result.hourly_hits) == result.hits,
        "sum(hourly_push_pages) == push_transfers":
            sum(result.hourly_push_pages) == result.push_transfers,
        "sum(hourly_fetch_pages) == fetch_pages":
            sum(result.hourly_fetch_pages) == result.fetch_pages,
        "sum(per_proxy.hits) == hits":
            sum(stats.hits for stats in proxies) == result.hits,
        "sum(per_proxy.requests) == hits + sum(per_proxy.pages_fetched)":
            policy_requests
            == result.hits + sum(stats.pages_fetched for stats in proxies),
        # An unserved request is booked failed or degraded, and nothing
        # else fails — so with no layer armed every request reaches a policy.
        "failed_requests <= requests - sum(per_proxy.requests) "
        "<= failed_requests + degraded_requests":
            result.failed_requests
            <= unserved
            <= result.failed_requests + result.degraded_requests,
        "sum(hourly_failed) == failed_requests":
            sum(result.hourly_failed) == result.failed_requests,
        "sum(hourly_degraded) == degraded_requests":
            sum(result.hourly_degraded) == result.degraded_requests,
        "lifecycle_events == leases granted + renewed + unsubscribed":
            result.lifecycle_events
            == result.leases_granted + result.leases_renewed + result.leases_unsubscribed,
        "overload_arrivals >= pushes shed + pulls rejected":
            result.overload_arrivals
            >= result.overload_pushes_shed + result.overload_pulls_rejected,
    }
    if result.notifications_sent:
        # Scoped to runs with the delivery protocol: without it shed
        # pushes were never notifications.  Every notification ends
        # delivered, lost, suppressed as a duplicate or shed; an injected
        # duplicate copy (``delivery_duplicate_probability``) is a second
        # fate the result does not count apart, hence a range — the left
        # side is an equality when no duplicates are injected.
        laws[
            "notifications_sent <= delivered + lost + duplicates + pushes shed "
            "<= 2 * notifications_sent"
        ] = result.notifications_sent <= copy_fates <= 2 * result.notifications_sent
    if result.pushing_scheme == PushingScheme.WHEN_NECESSARY.value:
        # Always-Pushing also transfers the pages a proxy declines.
        laws["push_transfers == sum(per_proxy.pages_pushed_stored)"] = (
            result.push_transfers == stored_pushes
        )
    return [law for law, holds in laws.items() if not holds]

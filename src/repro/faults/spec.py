"""Chaos configuration: how unreliable the substrate is.

:class:`ChaosSpec` bundles the knobs of the fault-injection layer.  It
is intentionally a plain frozen dataclass (like
:class:`~repro.system.config.SimulationConfig`) so experiment grids can
sweep it, and every field has a conservative default: a default-built
spec describes an always-healthy network and produces an empty
:class:`~repro.faults.schedule.FaultSchedule`.

Failure processes are memoryless: times between failures and repair
durations are exponentially distributed around the configured means
(MTBF / MTTR), the standard availability model for independent
component failures.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ChaosSpec:
    """Parameters of the fault-injection layer for one run."""

    #: Mean seconds between crashes of one proxy (0 disables crashes).
    proxy_mtbf: float = 0.0
    #: Mean downtime of a crashed proxy (seconds).  A recovered proxy
    #: restarts *cold*: its cache contents are lost.
    proxy_mttr: float = 3600.0
    #: Fraction of proxies subject to crashing (sampled per run).
    crash_fraction: float = 1.0
    #: Mean seconds between publisher (origin) outages (0 disables).
    publisher_mtbf: float = 0.0
    #: Mean duration of a publisher outage (seconds).
    publisher_mttr: float = 900.0
    #: Mean seconds between degraded-link episodes per proxy (0 disables).
    degraded_mtbf: float = 0.0
    #: Mean duration of a degraded-link episode (seconds).
    degraded_mttr: float = 1800.0
    #: Latency multiplier applied to origin fetches over a degraded link.
    degraded_latency_multiplier: float = 4.0
    #: Per-transfer loss probability on a degraded link; every loss
    #: costs one extra round trip (capped retransmissions).
    degraded_loss_probability: float = 0.0

    # -- push-path delivery faults -----------------------------------------

    #: Per-notification loss probability on the broker->proxy push path
    #: (0 disables; the push path is then perfectly reliable, as the
    #: paper assumes).  A lost notification is retransmitted after an
    #: ack timeout — see the ``delivery_*`` protocol knobs below.
    delivery_loss_probability: float = 0.0
    #: Probability a successfully delivered notification arrives twice
    #: (e.g. an ack lost on the way back); the proxy's duplicate
    #: suppression absorbs the second copy.
    delivery_duplicate_probability: float = 0.0
    #: Upper bound (seconds) of a uniform extra delay added to each
    #: delivered notification; nonzero delays let notifications arrive
    #: out of order, exercising proxy-side gap detection.
    delivery_reorder_delay: float = 0.0
    #: Mean seconds between crashes of one broker node on the push
    #: path (0 disables).  While a broker is down every notification
    #: routed through it is lost and must be retransmitted.
    broker_mtbf: float = 0.0
    #: Mean downtime of a crashed broker node (seconds).
    broker_mttr: float = 600.0
    #: Number of broker nodes the push path is sharded over; proxy
    #: ``s`` is served by broker ``s % broker_count``.
    broker_count: int = 1

    # -- reliable-delivery protocol ----------------------------------------

    #: Maximum retransmissions of one lost notification (0 means fire
    #: and forget: the first loss is permanent until access-time repair).
    delivery_retry_limit: int = 4
    #: Ack timeout before the first retransmission (seconds); doubles
    #: per retransmission up to
    #: :data:`~repro.system.delivery.DELIVERY_BACKOFF_CAP`.
    delivery_ack_timeout: float = 1.0
    #: Access-time staleness repair: on a cache hit the proxy validates
    #: the cached sequence number and repairs a missed push with an
    #: origin fetch (repair traffic, not a miss).  ``False`` is the
    #: no-protocol baseline that silently serves stale pages.
    delivery_repair: bool = True

    @property
    def injects_faults(self) -> bool:
        """Whether this spec describes any fault at all."""
        return (
            self.proxy_mtbf > 0.0
            or self.publisher_mtbf > 0.0
            or self.degraded_mtbf > 0.0
            or self.delivery_faulty
        )

    @property
    def delivery_faulty(self) -> bool:
        """Whether the push path itself can lose, duplicate or delay
        notifications (any delivery-fault knob off its default)."""
        return (
            self.delivery_loss_probability > 0.0
            or self.delivery_duplicate_probability > 0.0
            or self.delivery_reorder_delay > 0.0
            or self.broker_mtbf > 0.0
        )

    def __post_init__(self) -> None:
        # Every comparison is written so that NaN fails it.
        for name in (
            "proxy_mtbf",
            "proxy_mttr",
            "publisher_mtbf",
            "publisher_mttr",
            "degraded_mtbf",
            "degraded_mttr",
            "delivery_reorder_delay",
            "broker_mtbf",
            "broker_mttr",
            "delivery_ack_timeout",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ValueError(
                f"crash_fraction must be in [0, 1], got {self.crash_fraction}"
            )
        if not self.degraded_latency_multiplier >= 1.0:
            raise ValueError(
                "degraded_latency_multiplier must be >= 1, got "
                f"{self.degraded_latency_multiplier}"
            )
        for name in (
            "degraded_loss_probability",
            "delivery_loss_probability",
            "delivery_duplicate_probability",
        ):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1), got {getattr(self, name)}"
                )
        if not self.broker_count >= 1:
            raise ValueError(f"broker_count must be >= 1, got {self.broker_count}")
        if not self.delivery_retry_limit >= 0:
            raise ValueError(
                f"delivery_retry_limit must be >= 0, got {self.delivery_retry_limit}"
            )


@dataclass(frozen=True)
class OverloadSpec:
    """Parameters of the overload/backpressure layer for one run.

    Like :class:`ChaosSpec` this is a plain frozen dataclass so grids
    can sweep it, and every default describes *infinite* capacity: a
    default-built spec engages nothing and a run carrying it is
    bit-identical to one without the layer.

    The layer has three independent parts, each armed by its own knob:

    * finite per-proxy service queues (``service_rate > 0``),
    * origin admission control with a circuit breaker
      (``origin_capacity > 0``),
    * a global retry budget with seeded jitter (``retry_budget > 0``
      and/or ``retry_jitter > 0``).
    """

    #: Jobs (pushes + pull requests) one proxy can service per second;
    #: 0 models the paper's infinitely fast proxies (queues disabled).
    service_rate: float = 0.0
    #: Maximum jobs in one proxy's service queue (in service + waiting).
    #: Arrivals beyond it are rejected.
    queue_capacity: int = 64
    #: Occupancy fraction of ``queue_capacity`` above which *pushes*
    #: are shed while pulls are still admitted — subscribed-push
    #: deliveries yield queue room to subscriber pull requests first
    #: (the paper's subscriber-first service model).
    push_shed_fraction: float = 0.75

    # -- origin admission control -------------------------------------------

    #: Origin fetches admitted per second through the token-bucket gate;
    #: 0 models an infinite-capacity origin (admission disabled).
    origin_capacity: float = 0.0
    #: Token-bucket burst size (tokens the idle origin accumulates).
    origin_burst: int = 32
    #: Consecutive origin rejections that trip the circuit breaker open.
    breaker_threshold: int = 8
    #: Seconds the open breaker waits before half-opening for probes.
    breaker_cooldown: float = 30.0
    #: Probe successes in half-open state required to close the breaker.
    breaker_probe_successes: int = 3
    #: Fraction of ``breaker_cooldown`` added as seeded jitter to each
    #: open interval (draws from the ``faults.overload`` stream), so
    #: breakers across runs/sweeps don't half-open in lockstep.
    breaker_jitter: float = 0.0

    # -- retry-storm protection ---------------------------------------------

    #: Global budget of *extra* (beyond-first) attempts shared by every
    #: retry user — origin backoff, delivery retransmits, handshake
    #: confirms; 0 leaves retries unbudgeted (the pre-layer behaviour).
    retry_budget: int = 0
    #: Budget tokens restored per second (0 = a fixed, non-refilling
    #: budget for the whole run).
    retry_budget_rate: float = 0.0
    #: Max fraction of each backoff step added as seeded jitter (drawn
    #: from the ``faults.overload`` stream) to de-synchronise retries.
    retry_jitter: float = 0.0

    @property
    def enabled(self) -> bool:
        """Whether this spec engages any part of the layer."""
        return (
            self.service_rate > 0.0
            or self.origin_capacity > 0.0
            or self.retry_budget > 0
            or self.retry_jitter > 0.0
        )

    @property
    def uses_rng(self) -> bool:
        """Whether the layer draws from the ``faults.overload`` stream."""
        return self.retry_jitter > 0.0 or (
            self.origin_capacity > 0.0 and self.breaker_jitter > 0.0
        )

    def __post_init__(self) -> None:
        # Every comparison is written so that NaN fails it.
        for name in (
            "service_rate",
            "origin_capacity",
            "breaker_cooldown",
            "retry_budget_rate",
            "retry_budget",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in (
            "queue_capacity",
            "origin_burst",
            "breaker_threshold",
            "breaker_probe_successes",
        ):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.push_shed_fraction <= 1.0:
            raise ValueError(
                f"push_shed_fraction must be in (0, 1], got {self.push_shed_fraction}"
            )
        for name in ("breaker_jitter", "retry_jitter"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1), got {getattr(self, name)}"
                )

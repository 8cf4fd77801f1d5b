"""Reliable notification delivery over an unreliable push path.

The paper's push path (flow 3 of Figure 1) is assumed perfectly
reliable: every matched proxy receives every notification.  The
delivery layer drops that assumption.  With delivery faults configured
in the :class:`~repro.faults.spec.ChaosSpec`, each broker->proxy
notification can be lost (per-send probability, a crashed broker shard
or a crashed proxy), duplicated, or delayed out of order — and the
publisher side runs a small reliability protocol on top:

* every notification carries a publisher-stamped per-page **sequence
  number** (the page's version);
* an unacknowledged send is **retransmitted** after an ack timeout
  that doubles per attempt up to :data:`DELIVERY_BACKOFF_CAP`, at most
  ``delivery_retry_limit`` times;
* the number of concurrently pending retransmissions is bounded by
  :data:`DELIVERY_QUEUE_LIMIT` — a loss arriving at a full queue is
  *abandoned* (overload shedding) and becomes a permanent loss;
* a permanently lost notification is eventually healed lazily by
  access-time **staleness repair** at the proxy.

Like the origin-retry model, the protocol is resolved *analytically*
against the materialised :class:`~repro.faults.schedule.FaultSchedule`:
:meth:`ReliableDelivery.plan` walks the attempt timeline of one
notification — whether each send at time ``t`` survives is a pure
window lookup plus at most one draw from the dedicated
``"faults.delivery"`` stream — and returns a :class:`DeliveryPlan`
stating when (and whether) the notification arrives, and the arrival
is scheduled as a DES event.  Keeping all randomness in one named
stream preserves the bit-identity discipline: with every delivery knob
at its default the stream is never created and no other stream's draw
order moves.

Its wrappers (:func:`delivery_wrappers`) touch state outside their
proxy: every send draws from the one ``"faults.delivery"`` stream and
holds a slot of the publisher's one retransmit queue.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.faults.schedule import FaultSchedule
from repro.faults.spec import ChaosSpec
from repro.obs.recorder import Observer
from repro.pubsub.routing import SequenceTracker
from repro.sim.engine import URGENT
from repro.sim.rng import uniform_draws
from repro.system.config import HIT_LATENCY, PER_HOP_LATENCY
from repro.system.proxy import SETTLED

#: Cap on a single retransmission backoff step (seconds).
DELIVERY_BACKOFF_CAP = 30.0
#: Bound on concurrently pending retransmissions at the publisher; when
#: the queue is full a lost notification is abandoned instead of queued
#: (the overload-shedding path).
DELIVERY_QUEUE_LIMIT = 1024


def capped_backoff(base: float, cap: float, attempt: int) -> float:
    """Exponential backoff for retry ``attempt`` (0-based), capped:
    ``base`` doubles per attempt up to ``cap``."""
    return min(base * (2.0 ** attempt), cap)


def retry_instants(
    at: float, limit: int, base: float, cap: float, overload=None, ack_timeout=False
) -> Iterator[Tuple[int, float, float]]:
    """The retry walk after a first attempt at ``at`` was lost.

    Yields ``(attempt, instant, backoff)`` for retries 1..``limit``,
    :func:`capped_backoff` apart.  With an ``overload`` manager each
    retry must first fit the global retry budget — the walk ends where
    one is refused — and every step carries the seeded jitter.  Shared
    by the origin fetch, the notification send and the confirmation
    handshake: the caller makes the first attempt itself, applies its
    own "was this attempt lost" test to each instant and stops iterating
    on a success, so budget calls and jitter draws happen in attempt
    order and only for attempts made.  With ``ack_timeout`` a walk that
    lost every retry yields one step more, attempt ``limit + 1``: no
    retry (it asks no budget) but the instant the last attempt times
    out, until when the sender's queue slot stays taken.
    """
    for attempt in range(limit + ack_timeout):
        if attempt < limit and overload is not None and not overload.allow_retry(at):
            return
        backoff = capped_backoff(base, cap, attempt)
        if overload is not None:
            backoff = overload.jitter_backoff(backoff)
        at += backoff
        yield attempt + 1, at, backoff


class DeliveryPlan(NamedTuple):
    """The resolved fate of one notification send.

    Attributes:
        delivered: whether any send attempt got through.
        arrival_time: simulation time the surviving copy reaches the
            proxy (send time plus reorder delay); meaningless when
            ``delivered`` is False.
        attempts: sends performed (first transmission + retransmissions).
        loss_events: sends that were lost (each cost one attempt).
        queued: whether the notification entered the retransmit queue.
        queue_overflow: the first send was lost but the retransmit
            queue was full — the notification was abandoned unsent.
        duplicate_time: arrival time of a second, duplicate copy (an
            ack lost on the way back), or None.
    """

    delivered: bool
    arrival_time: float
    attempts: int
    loss_events: int
    queued: bool
    queue_overflow: bool
    duplicate_time: Optional[float]

    @property
    def retransmissions(self) -> int:
        """Retransmission sends beyond the first transmission."""
        return max(0, self.attempts - 1)


class ReliableDelivery:
    """Delivery protocol state of one run, both ends of the push path.

    Publisher side: the bounded retransmit queue (a min-heap of
    resolution times — entries are drained lazily because the simulator
    plans notifications in nondecreasing time order) and the dedicated
    delivery RNG stream.  Proxy side: one
    :class:`~repro.pubsub.routing.SequenceTracker` per proxy.  The
    object counts and traces what happens on the path it models and
    writes those counters into the result itself (:meth:`collect`).
    """

    def __init__(
        self,
        spec: ChaosSpec,
        schedule: FaultSchedule,
        rng: np.random.Generator,
        overload=None,
        proxy_count: int = 0,
        observer: Optional[Observer] = None,
    ) -> None:
        self.spec = spec
        self.schedule = schedule
        #: The next draw of the dedicated stream, which only this object
        #: reads (so it can be drawn a block at a time).
        self._draw = uniform_draws(rng).__next__
        #: Optional OverloadManager: retransmissions then consume the
        #: global retry budget and backoff steps carry seeded jitter.
        #: ``None`` (the default) keeps the protocol byte-identical to
        #: the pre-overload behaviour.
        self._overload = overload
        #: Resolution times of notifications still occupying a
        #: retransmit-queue slot.
        self._pending: List[float] = []
        self.trackers = [SequenceTracker() for _ in range(proxy_count)]
        #: Where the delivery events go (never near RNG); None if unobserved.
        self._obs = observer if observer is not None and observer.enabled else None
        # -- counters -----------------------------------------------------
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.loss_events = 0
        self.retransmitted = 0
        self.queue_overflows = 0

    @property
    def pending_retransmits(self) -> int:
        """Retransmit-queue slots currently occupied."""
        return len(self._pending)

    def _send_lost(self, server_id: int, broker_id: int, at: float) -> bool:
        """Whether one send at time ``at`` fails to reach the proxy.

        Down-windows are checked first and short-circuit, so they never
        consume a random draw; the loss draw only happens when a loss
        probability is configured.
        """
        if self.schedule.broker_down(broker_id, at):
            return True
        if self.schedule.proxy_down(server_id, at):
            return True
        loss = self.spec.delivery_loss_probability
        return loss > 0.0 and self._draw() < loss

    def send(self, server_id: int, page_id: int, now: float) -> DeliveryPlan:
        """:meth:`plan` one notification, count and trace its fate."""
        plan = self.plan(server_id, now)
        self.sent += 1
        if plan.loss_events:
            self.loss_events += plan.loss_events
            self.retransmitted += plan.retransmissions
            if plan.queue_overflow:
                self.queue_overflows += 1
            if not plan.delivered:
                self.lost += 1
        obs = self._obs
        if obs is not None:
            obs.notification_sent(now, page_id, server_id)
            obs.queue_depth(now, "retransmit", len(self._pending))
            for _ in range(plan.loss_events):
                obs.delivery_drop(now, page_id, server_id, "push-path")
            if plan.retransmissions:
                obs.delivery_retransmit(now, page_id, server_id, plan.attempts)
            if not plan.delivered:
                reason = (
                    "queue-overflow" if plan.queue_overflow else "retries-exhausted"
                )
                obs.delivery_lost(now, page_id, server_id, reason)
        return plan

    def lose_at_down_proxy(self, server_id: int, page_id: int, now: float) -> None:
        """A reorder-delayed copy found the proxy down: nothing receives it."""
        self.lost += 1
        if self._obs is not None:
            self._obs.delivery_lost(now, page_id, server_id, "proxy-down")

    def receive(self, server_id: int, page_id: int, version: int, now: float) -> bool:
        """One copy reaches proxy ``server_id``; false for a duplicate.

        A retransmission racing its ack, or a late reordered copy of an
        old version, is suppressed before it touches the cache.
        """
        kind = self.trackers[server_id].observe(page_id, version)
        obs = self._obs
        if kind == "duplicate":
            if obs is not None:
                obs.delivery_dup(now, page_id, server_id)
            return False
        self.delivered += 1
        if obs is not None:
            obs.notification_delivered(now, page_id, server_id)
            if kind == "gap":
                obs.delivery_gap(now, page_id, server_id, version)
        return True

    def believed_current(
        self, server_id: int, held: Optional[int], page_id: int, version: int
    ) -> Optional[int]:
        """``held`` when it is a copy the proxy wrongly believes current.

        ``None`` when the oracle view (``version`` is current) and the
        proxy's view agree: fresh copy, page not cached (``held`` is
        ``None``), or a stale copy the proxy *knows* is stale — a
        delivered notification already told it a newer version exists
        (the policy just declined to store it), so the ordinary
        stale-miss path applies.
        """
        if held is None or held == version:
            return None
        known = self.trackers[server_id].last_seen(page_id)
        if known is not None and known > held:
            return None
        return held

    def collect(self, result) -> None:
        """Write the push-path counters into ``result``."""
        result.notifications_sent = self.sent
        result.notifications_delivered = self.delivered
        result.notifications_lost = self.lost
        result.notification_loss_events = self.loss_events
        result.notifications_retransmitted = self.retransmitted
        result.duplicate_notifications = sum(t.duplicates for t in self.trackers)
        result.delivery_gaps_detected = sum(t.gaps for t in self.trackers)
        result.retransmit_queue_overflows = self.queue_overflows

    def plan(self, server_id: int, now: float) -> DeliveryPlan:
        """Resolve the delivery of one notification sent at ``now``."""
        spec = self.spec
        # Lazily free queue slots whose retransmissions have resolved;
        # the simulator calls plan() in nondecreasing time order.
        pending = self._pending
        while pending and pending[0] <= now:
            heapq.heappop(pending)

        broker_id = server_id % spec.broker_count
        at = now
        attempts = 1
        queued = False
        # Plans are built positionally (keywords double the cost), as
        # (delivered, arrival_time, attempts, loss_events, queued,
        # queue_overflow, duplicate_time).
        if self._send_lost(server_id, broker_id, now):
            limit = spec.delivery_retry_limit
            # The first loss is what admits the notification to the
            # retransmit queue; a full queue sheds it instead.
            queued = limit > 0
            if queued and len(pending) >= DELIVERY_QUEUE_LIMIT:
                return DeliveryPlan(False, now, 1, 1, False, True, None)
            delivered = False
            # A retry the global budget refuses ends the walk: the loss
            # is permanent (healed later by access-time staleness repair).
            for attempt, at, _backoff in retry_instants(
                now, limit, spec.delivery_ack_timeout, DELIVERY_BACKOFF_CAP,
                self._overload, ack_timeout=True,
            ):
                if attempt > limit:
                    break  # not a send: the last one's ack timeout
                attempts += 1
                if not self._send_lost(server_id, broker_id, at):
                    delivered = True
                    break
            if queued:
                heapq.heappush(pending, at)
            if not delivered:
                return DeliveryPlan(False, at, attempts, attempts, queued, False, None)

        arrival = at
        if spec.delivery_reorder_delay > 0.0:
            arrival += self._draw() * spec.delivery_reorder_delay
        duplicate_time: Optional[float] = None
        if spec.delivery_duplicate_probability > 0.0:
            if self._draw() < spec.delivery_duplicate_probability:
                duplicate_time = arrival
                if spec.delivery_reorder_delay > 0.0:
                    duplicate_time += self._draw() * spec.delivery_reorder_delay
        return DeliveryPlan(
            True, arrival, attempts, attempts - 1, queued, False, duplicate_time
        )


def delivery_wrappers(sim, env):
    """Delivery's wrappers for each proxy of ``sim``: ``wrap(proxy,
    on_publish, on_request)`` returns the send, whose surviving copies
    reach ``on_publish`` at once or from ``env``'s agenda, and the
    staleness check."""
    delivery = sim._delivery
    recovery = sim._recovery
    publisher = sim.publisher
    repair = sim.chaos.delivery_repair
    queues = sim._overload.queues if sim._overload is not None else {}
    obs = sim.obs
    obs_on = sim._obs_on
    send = delivery.send
    receive = delivery.receive
    believed_current = delivery.believed_current
    schedule = env.schedule

    def wrap(proxy, on_publish, on_request):
        server_id = proxy.server_id
        queue = queues.get(server_id)

        def arrive(page_id, version, size, match_count, t):
            """One notification copy reaches the proxy at time ``t``."""
            if obs_on:
                sim._obs_now = t
            if not proxy.up:
                delivery.lose_at_down_proxy(server_id, page_id, t)
                return
            if queue is not None and not queue.offer(t, True):
                # Shed by a saturated service queue before the sequence
                # tracker sees the copy.
                if obs_on:
                    obs.overload_shed(t, page_id, server_id, "push")
                return
            if receive(server_id, page_id, version, t):
                on_publish(page_id, version, size, match_count, t)
                if sim._check_interval:
                    sim._maybe_check_invariants()

        def send_notification(page_id, version, size, match_count, now):
            plan = send(server_id, page_id, now)
            if not plan.delivered:
                return SETTLED
            for at in (plan.arrival_time, plan.duplicate_time):
                if at is None:
                    continue
                if at <= now:  # undelayed: it arrives inside the publish
                    arrive(page_id, version, size, match_count, now)
                else:
                    schedule(
                        at,
                        lambda _env, p=page_id, v=version, z=size, m=match_count: (
                            arrive(p, v, z, m, _env.now)
                        ),
                        priority=URGENT,
                    )
            return SETTLED

        def silently_stale(page_id, version, size, match_count, now, held):
            """Settles a request whose proxy *believes* a stale copy is
            current (the notification was lost): repaired from the
            origin, or — without repair — served as an ordinary hit,
            silently wrong."""
            if held == version:
                if repair:
                    # Access-time validation ran and confirmed freshness.
                    recovery.staleness_validations += 1
                return on_request(page_id, version, size, match_count, now, held)
            cached = believed_current(server_id, held, page_id, version)
            if cached is None:
                return on_request(page_id, version, size, match_count, now, held)
            age = publisher.staleness_age(page_id, cached, now)
            waited = 0.0
            if repair:
                # Validation detected the missed push; repair from the origin.
                recovery.staleness_validations += 1
                ok, waited = sim._origin_wait(now, server_id, page_id)
                if ok:
                    publisher.record_repair(page_id, now)
                    if obs_on:
                        obs.repair(now, page_id, server_id, age)
                    recovery.sample_staleness_age(age)
                    fetch_latency, degraded = sim._degrade_transfer(
                        PER_HOP_LATENCY * proxy.policy.cost, server_id, now
                    )
                    sim._settle_miss(
                        proxy, server_id, page_id, version, size, match_count, now,
                        HIT_LATENCY + waited + fetch_latency,
                        degraded or waited > 0.0,
                    )
                    return
                # Origin unreachable and retries exhausted: degrade to
                # serving the stale copy rather than failing the request.
                sim._note_degraded(now)
            # The oracle's books: one silently stale response, with its
            # age (the no-protocol baseline serves every such copy so).
            recovery.on_stale_served(now, age)
            if obs_on:
                obs.stale_served(now, page_id, server_id, age)
            sim._serve_cached(
                proxy, server_id, page_id, cached, size, match_count, now, waited
            )

        return send_notification, silently_stale

    return wrap

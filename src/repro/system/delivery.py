"""Reliable notification delivery over an unreliable push path.

The paper's push path (flow 3 of Figure 1) is assumed perfectly
reliable: every matched proxy receives every notification.  The
delivery layer drops that assumption.  With delivery faults configured
in the :class:`~repro.faults.spec.ChaosSpec`, each broker->proxy
notification can be lost (per-send probability, a crashed broker shard
or a crashed proxy), duplicated, or delayed out of order — and the
publisher side runs a small reliability protocol on top:

* every notification carries a publisher-stamped per-page **sequence
  number** (see :class:`~repro.pubsub.pages.Notification`);
* an unacknowledged send is **retransmitted** after an ack timeout
  that doubles per attempt up to a cap, at most
  ``delivery_retry_limit`` times;
* the number of concurrently pending retransmissions is bounded by
  ``delivery_queue_limit`` — a loss arriving at a full queue is
  *abandoned* (overload shedding) and becomes a permanent loss;
* a permanently lost notification is eventually healed lazily by
  access-time **staleness repair** at the proxy (see the simulator's
  request path).

Like the origin-retry model, the protocol is resolved *analytically*
against the materialised :class:`~repro.faults.schedule.FaultSchedule`:
:meth:`ReliableDelivery.plan` walks the attempt timeline of one
notification — whether each send at time ``t`` survives is a pure
window lookup plus at most one draw from the dedicated
``"faults.delivery"`` stream — and returns a :class:`DeliveryPlan`
stating when (and whether) the notification arrives.  The simulator
then schedules the arrival as a DES event.  Keeping all randomness in
one named stream preserves the bit-identity discipline: with every
delivery knob at its default the stream is never created and no other
stream's draw order moves.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.faults.schedule import FaultSchedule
from repro.faults.spec import ChaosSpec
from repro.system.metrics import STALENESS_AGE_BIN_EDGES


def staleness_age_bin(age: float) -> int:
    """Histogram bin index for one staleness-age sample (seconds)."""
    for index, edge in enumerate(STALENESS_AGE_BIN_EDGES):
        if age <= edge:
            return index
    return len(STALENESS_AGE_BIN_EDGES)


def capped_backoff(base: float, cap: float, attempt: int) -> float:
    """Exponential backoff for retry ``attempt`` (0-based), capped.

    The retry timing rule shared by the delivery retransmit protocol
    and the subscription confirmation handshake: ``base`` doubles per
    attempt up to ``cap``.
    """
    return min(base * (2.0 ** attempt), cap)


@dataclass(frozen=True)
class DeliveryPlan:
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
    """Publisher-side delivery protocol state for one run.

    Holds the bounded retransmit queue (a min-heap of resolution
    times — entries are drained lazily because the simulator plans
    notifications in nondecreasing time order) and the dedicated
    delivery RNG stream.
    """

    def __init__(
        self,
        spec: ChaosSpec,
        schedule: FaultSchedule,
        rng: np.random.Generator,
        overload=None,
    ) -> None:
        self.spec = spec
        self.schedule = schedule
        self._rng = rng
        #: Optional OverloadManager: retransmissions then consume the
        #: global retry budget and backoff steps carry seeded jitter.
        #: ``None`` (the default) keeps the protocol byte-identical to
        #: the pre-overload behaviour.
        self._overload = overload
        #: Resolution times of notifications still occupying a
        #: retransmit-queue slot.
        self._pending: List[float] = []

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
        return loss > 0.0 and float(self._rng.random()) < loss

    def plan(self, server_id: int, now: float) -> DeliveryPlan:
        """Resolve the delivery of one notification sent at ``now``."""
        spec = self.spec
        # Lazily free queue slots whose retransmissions have resolved;
        # the simulator calls plan() in nondecreasing time order.
        while self._pending and self._pending[0] <= now:
            heapq.heappop(self._pending)

        broker_id = server_id % spec.broker_count
        overload = self._overload
        at = now
        loss_events = 0
        attempts = 0
        delivered = False
        for attempt in range(spec.delivery_retry_limit + 1):
            attempts += 1
            if not self._send_lost(server_id, broker_id, at):
                delivered = True
                break
            loss_events += 1
            if attempt == 0 and spec.delivery_retry_limit > 0:
                # The first loss is what admits the notification to the
                # retransmit queue; a full queue sheds it instead.
                if len(self._pending) >= spec.delivery_queue_limit:
                    return DeliveryPlan(
                        delivered=False,
                        arrival_time=at,
                        attempts=1,
                        loss_events=1,
                        queued=False,
                        queue_overflow=True,
                        duplicate_time=None,
                    )
            if (
                overload is not None
                and attempt < spec.delivery_retry_limit
                and not overload.allow_retry(at)
            ):
                # Retry-storm protection: the global budget refused the
                # next retransmission, so the loss becomes permanent
                # (healed later by access-time staleness repair).
                break
            backoff = capped_backoff(
                spec.delivery_ack_timeout, spec.delivery_backoff_cap, attempt
            )
            if overload is not None:
                backoff = overload.jitter_backoff(backoff)
            at += backoff

        queued = loss_events > 0 and spec.delivery_retry_limit > 0
        if not delivered:
            if queued:
                heapq.heappush(self._pending, at)
            return DeliveryPlan(
                delivered=False,
                arrival_time=at,
                attempts=attempts,
                loss_events=loss_events,
                queued=queued,
                queue_overflow=False,
                duplicate_time=None,
            )

        if queued:
            heapq.heappush(self._pending, at)
        arrival = at
        if spec.delivery_reorder_delay > 0.0:
            arrival += float(self._rng.random()) * spec.delivery_reorder_delay
        duplicate_time: Optional[float] = None
        if spec.delivery_duplicate_probability > 0.0:
            if float(self._rng.random()) < spec.delivery_duplicate_probability:
                duplicate_time = arrival
                if spec.delivery_reorder_delay > 0.0:
                    duplicate_time += (
                        float(self._rng.random()) * spec.delivery_reorder_delay
                    )
        return DeliveryPlan(
            delivered=True,
            arrival_time=arrival,
            attempts=attempts,
            loss_events=loss_events,
            queued=queued,
            queue_overflow=False,
            duplicate_time=duplicate_time,
        )

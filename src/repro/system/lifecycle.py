"""Subscription lifecycle: leases, confirmation handshakes, re-polls.

The paper's subscription base is frozen for a run; this layer makes it
a moving part.  Each (page, proxy) subscription cell follows the leased
lifecycle of hub protocols (PubSubHubbub-style)::

    subscribe ──► PENDING ──confirm──► CONFIRMED ──renew──► CONFIRMED
                     │                     │
                     │ (handshake lost,    │ (no renewal arrives)
                     │  retries exhausted) ▼
                     │                  EXPIRED ──re-poll──► CONFIRMED
                     ▼
               (repaired on next access)         unsubscribe ──► UNSUBSCRIBED

* **Handshake**: a ``subscribe``/``renew`` message is only effective
  once the hub's confirmation arrives.  Each confirmation attempt can
  be lost (:attr:`~repro.workload.churn.ChurnSpec.confirmation_loss_probability`,
  drawn from the dedicated ``"faults.lifecycle"`` stream) and is
  retried with capped exponential backoff — the same
  :func:`~repro.system.delivery.retry_instants` walk the reliable-
  delivery retransmit protocol uses.  Like
  :meth:`~repro.system.delivery.ReliableDelivery.plan`, the whole
  attempt timeline is resolved *analytically* at event time; the lease
  stays PENDING until the resolved confirmation instant passes.
* **Per-proxy work queues**: retried handshakes occupy a slot in the
  proxy's bounded :class:`~repro.system.delivery.RetryQueue` until they
  resolve; a handshake arriving at a full queue is abandoned (overload
  shedding) and the lease is stuck PENDING.
* **Lazy expiry**: nobody fires an event at lease expiry.  A lapsed
  lease is noticed when something touches it — a publication (the push
  is suppressed), an access, or end-of-run accounting.
* **Re-poll repair**: an access to a lapsed or stuck-PENDING cell
  re-polls the hub and restores a confirmed lease on the spot, so no
  subscriber permanently loses notifications — the lifecycle analogue
  of the delivery layer's access-time staleness repair.

Observability hooks are emitted directly by the manager (they never
touch RNG); all randomness stays in the one dedicated stream, which is
never even derived when the loss probability is zero — the bit-identity
discipline shared with the other fault layers.

Its wrappers (:func:`lease_wrappers`) touch state outside their proxy:
every proxy's handshakes draw from the one ``"faults.lifecycle"``
stream in trace order, as one hub would confirm them.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.recorder import NULL_OBSERVER, Observer
from repro.sim.rng import uniform_draws
from repro.system.delivery import RetryQueue, retry_instants
from repro.system.metrics import RENEWAL_LATENCY_BIN_EDGES
from repro.system.proxy import SETTLED
from repro.workload.churn import RENEW, UNSUBSCRIBE, ChurnSpec

#: Lease states.  EXPIRED is assigned lazily; a lease whose deadline
#: passed but that nothing touched yet still carries its old status.
PENDING = "pending"
CONFIRMED = "confirmed"
EXPIRED = "expired"
UNSUBSCRIBED = "unsubscribed"

#: Why a push to a cell in each non-confirmed state is suppressed.
_SUPPRESSED_BECAUSE = {
    UNSUBSCRIBED: "unsubscribed",
    EXPIRED: "lease-expired",
    PENDING: "lease-pending",
}

#: Sentinel confirmation instant for an abandoned handshake.
NEVER = float("inf")

#: Maximum confirmation retries after a lost handshake message.
CONFIRM_RETRY_LIMIT = 3
#: Timeout before the first confirmation retry (seconds); doubles per
#: attempt up to :data:`CONFIRM_BACKOFF_CAP`.
CONFIRM_TIMEOUT = 2.0
#: Cap on a single confirmation backoff step (seconds).
CONFIRM_BACKOFF_CAP = 60.0
#: Bound on concurrently pending handshakes per proxy work queue;
#: an overflowing handshake is abandoned (stays pending until
#: access-time re-poll).
QUEUE_LIMIT = 64


class _Lease:
    """Mutable lifecycle state of one (page, proxy) subscription cell."""

    __slots__ = ("status", "expires_at", "confirmed_at")

    def __init__(self, status: str, expires_at: float, confirmed_at: float) -> None:
        self.status = status
        self.expires_at = expires_at
        self.confirmed_at = confirmed_at


class LifecycleManager:
    """Per-run lease state for every subscription cell.

    The simulator consults it on every publish (``deliverable``: may a
    notification go to this proxy?) and every request (``on_access``:
    re-poll repair of lapsed state), and feeds it the trace's lifecycle
    rows (``on_event``).
    """

    def __init__(
        self,
        spec: ChurnSpec,
        server_count: int,
        rng: Optional[np.random.Generator] = None,
        observer: Optional[Observer] = None,
        overload=None,
    ) -> None:
        self.spec = spec
        #: The next draw of the dedicated stream, which only this object
        #: reads (so it can be drawn a block at a time); ``None`` when
        #: confirmations cannot be lost.
        self._draw = None
        if rng is not None and spec.confirmation_loss_probability > 0.0:
            self._draw = uniform_draws(rng).__next__
        #: Optional OverloadManager: confirmation retries then consume
        #: the global retry budget and backoff steps carry seeded
        #: jitter.  ``None`` keeps the handshake timeline byte-identical
        #: to the pre-overload behaviour.
        self._overload = overload
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._obs_on = self.obs.enabled
        self._leases: Dict[Tuple[int, int], _Lease] = {}
        self._queues: List[RetryQueue] = [
            RetryQueue(QUEUE_LIMIT) for _ in range(server_count)
        ]
        # -- counters -----------------------------------------------------
        self.events = 0
        self.granted = 0
        self.renewed = 0
        self.unsubscribed = 0
        self.expired = 0
        self.handshake_losses = 0
        self.handshakes_abandoned = 0
        #: Handshakes shed because their proxy's queue was full.
        self.queue_overflows = 0
        self.lease_repolls = 0
        self.handshake_repairs = 0
        #: Publish-side pushes :meth:`deliverable` refused for lease reasons.
        self.pushes_suppressed = 0
        #: Re-polls that found the proxy's cached copy behind the origin
        #: (counted by the re-poll wrapper, which sees the cache).
        self.stale_serves = 0
        self.renewal_latency_counts: List[int] = [0] * (
            len(RENEWAL_LATENCY_BIN_EDGES) + 1
        )

    # -- queue statistics ----------------------------------------------------

    @property
    def queue_peak(self) -> int:
        return max((queue.peak for queue in self._queues), default=0)

    # -- handshake resolution --------------------------------------------------

    def _retry_handshake(self, queue: RetryQueue, now: float) -> float:
        """When the confirmation lands, its first attempt at ``now`` lost.

        Walks the retry timeline analytically
        (:func:`~repro.system.delivery.retry_instants`): each attempt's
        loss is one draw from the lifecycle stream.  Returns
        :data:`NEVER` when every attempt is lost, the proxy's handshake
        queue sheds the retry, or the global retry budget refuses one —
        the lease then stays PENDING until an access-time re-poll.
        """
        loss = self.spec.confirmation_loss_probability
        limit = CONFIRM_RETRY_LIMIT
        losses = 1
        confirmed_at = NEVER
        if limit > 0 and queue.full:
            # No slot to retry from: the handshake is shed.
            self.queue_overflows += 1
        else:
            for attempt, at, _backoff in retry_instants(
                now, limit, CONFIRM_TIMEOUT, CONFIRM_BACKOFF_CAP,
                self._overload, ack_timeout=True,
            ):
                if attempt <= limit:
                    if self._draw() < loss:
                        losses += 1
                        continue
                    confirmed_at = at
                # Confirmed at ``at``, or the last attempt timed out
                # there: the handshake held a queue slot until then (a
                # walk the budget cut short holds none).
                if limit > 0:
                    queue.admit(at)
                break
        self.handshake_losses += losses
        if confirmed_at == NEVER:
            self.handshakes_abandoned += 1
        return confirmed_at

    # -- event intake ----------------------------------------------------------

    def on_event(
        self, server_id: int, page_id: int, kind: int, lease: float, now: float
    ) -> None:
        """Apply one trace lifecycle row at simulation time ``now``.

        ``kind`` is the row's code (an index into
        :data:`~repro.workload.churn.LIFECYCLE_KINDS`); the table only
        holds known ones.  The common row — first confirmation attempt
        gets through, lease not lapsed — is handled here without a
        helper call.
        """
        self.events += 1
        key = (server_id, page_id)
        obs_on = self._obs_on
        held = self._leases.get(key)
        if kind == UNSUBSCRIBE:
            self.unsubscribed += 1
            if held is None:
                self._leases[key] = _Lease(UNSUBSCRIBED, now, now)
            else:
                if held.expires_at <= now:
                    self._touch(key, held, now, "event")
                held.status = UNSUBSCRIBED
            if obs_on:
                self.obs.lease_unsubscribe(now, page_id, server_id)
            return

        # subscribe / renew: start a fresh lease behind a handshake.
        confirmed_at = now
        draw = self._draw
        if draw is not None:
            queue = self._queues[server_id]
            if queue.due <= now:
                queue.drain(now)
            if draw() < self.spec.confirmation_loss_probability:
                confirmed_at = self._retry_handshake(queue, now)
        if kind == RENEW:
            self.renewed += 1
            if obs_on:
                self.obs.lease_renewed(now, page_id, server_id, lease)
            if confirmed_at != NEVER:
                self.renewal_latency_counts[
                    bisect_left(RENEWAL_LATENCY_BIN_EDGES, confirmed_at - now)
                ] += 1
        else:
            self.granted += 1
            if obs_on:
                self.obs.lease_subscribe(now, page_id, server_id, lease)
        if held is not None:
            # A lapsed lease is booked after the row's own event and
            # before the handshake's (the observed order).
            if held.expires_at <= now:
                self._touch(key, held, now, "event")
            held.status = PENDING
            held.expires_at = now + lease
            held.confirmed_at = confirmed_at
        else:
            self._leases[key] = _Lease(PENDING, now + lease, confirmed_at)
        if obs_on:
            if confirmed_at == NEVER:
                self.obs.handshake_lost(
                    now, page_id, server_id, CONFIRM_RETRY_LIMIT + 1
                )
            else:
                self.obs.lease_confirmed(now, page_id, server_id, confirmed_at - now)
            self.obs.queue_depth(now, "handshake", len(self._queues[server_id]))

    # -- lazy state maintenance -------------------------------------------------

    def _touch(
        self, key: Tuple[int, int], lease: _Lease, now: float, where: str
    ) -> None:
        """Advance one lease's lazy transitions up to ``now``.

        Promotes a PENDING lease whose confirmation instant has passed,
        then retires it if its deadline has too.  Each expiry is counted
        exactly once (the status transition is the latch).
        """
        if lease.status == PENDING and lease.confirmed_at <= now:
            lease.status = CONFIRMED
        if lease.status in (PENDING, CONFIRMED) and lease.expires_at <= now:
            lease.status = EXPIRED
            self.expired += 1
            if self._obs_on:
                self.obs.lease_expired(now, key[1], key[0], where)

    # -- publish-path gate --------------------------------------------------------

    def deliverable(
        self, server_id: int, page_id: int, now: float
    ) -> Tuple[bool, str]:
        """Whether a notification may be pushed to this cell at ``now``.

        Returns ``(allowed, reason)``; ``reason`` names the suppression
        cause when not allowed (counted, and traced as a
        ``push_suppressed`` event).  Touching the lease performs the
        lazy expiry.
        """
        key = (server_id, page_id)
        lease = self._leases.get(key)
        reason = "no-lease"
        if lease is not None:
            if lease.status != CONFIRMED or lease.expires_at <= now:
                self._touch(key, lease, now, "publish")
            if lease.status == CONFIRMED:
                return True, ""
            reason = _SUPPRESSED_BECAUSE[lease.status]
        self.pushes_suppressed += 1
        if self._obs_on:
            self.obs.push_suppressed(now, page_id, server_id, reason)
        return False, reason

    # -- access-path repair --------------------------------------------------------

    def on_access(
        self, server_id: int, page_id: int, now: float
    ) -> Optional[str]:
        """Re-poll repair hook, called on every user request.

        A request against a lapsed or stuck-PENDING cell re-polls the
        hub: the subscriber learns its lease silently died and comes
        back with a fresh confirmed lease of the nominal duration (no
        RNG draw — re-poll is deterministic repair, not workload).

        Returns the repair kind (``"expired"`` or ``"handshake"``) when
        a repair happened, ``None`` on an untouched/healthy/unsubscribed
        cell.
        """
        key = (server_id, page_id)
        lease = self._leases.get(key)
        if lease is None:
            return None
        if lease.status != CONFIRMED or lease.expires_at <= now:
            self._touch(key, lease, now, "access")
        if lease.status == CONFIRMED or lease.status == UNSUBSCRIBED:
            return None
        if lease.status == EXPIRED:
            kind = "expired"
            self.lease_repolls += 1
        else:
            # PENDING with an unresolved (future or abandoned)
            # confirmation: the access doubles as the confirmation.
            kind = "handshake"
            self.handshake_repairs += 1
        lease.status = CONFIRMED
        lease.confirmed_at = now
        lease.expires_at = now + self.spec.lease_duration
        if self._obs_on:
            self.obs.repoll(now, page_id, server_id, kind)
        return kind

    # -- end-of-run accounting -------------------------------------------------------

    def finalize(self, horizon: float) -> Dict[str, int]:
        """Settle every lease at ``horizon`` and count the end states.

        Touches every cell (so leases that lapsed unobserved still get
        their expiry counted) and returns the end-state census.
        """
        counts = {"active": 0, "pending": 0, "expired": 0, "unsubscribed": 0}
        for key, lease in self._leases.items():
            self._touch(key, lease, horizon, "end")
            if lease.status == CONFIRMED:
                counts["active"] += 1
            elif lease.status == PENDING:
                counts["pending"] += 1
            elif lease.status == EXPIRED:
                counts["expired"] += 1
            else:
                counts["unsubscribed"] += 1
        return counts

    def collect(self, result, horizon: float) -> None:
        """Settle the leases at ``horizon`` and write the lifecycle
        block of ``result``."""
        census = self.finalize(horizon)
        result.lifecycle_events = self.events
        result.leases_granted = self.granted
        result.leases_renewed = self.renewed
        result.leases_expired = self.expired
        result.leases_unsubscribed = self.unsubscribed
        result.handshake_losses = self.handshake_losses
        result.handshakes_abandoned = self.handshakes_abandoned
        result.lease_repolls = self.lease_repolls
        result.handshake_repairs = self.handshake_repairs
        result.churn_stale_serves = self.stale_serves
        result.pushes_suppressed_no_lease = self.pushes_suppressed
        result.active_leases_end = census["active"]
        result.pending_leases_end = census["pending"]
        result.expired_leases_end = census["expired"]
        result.lifecycle_queue_overflows = self.queue_overflows
        result.lifecycle_queue_peak = self.queue_peak
        result.renewal_latency_bin_edges = list(RENEWAL_LATENCY_BIN_EDGES)
        result.renewal_latency_counts = list(self.renewal_latency_counts)


def lease_wrappers(sim, env):
    """Churn's wrappers for each proxy of ``sim``: ``wrap(proxy,
    on_publish, on_request)`` returns the lease gate and the re-poll."""
    lifecycle = sim._lifecycle
    deliverable = lifecycle.deliverable
    on_access = lifecycle.on_access
    trackers = sim._delivery.trackers if sim._delivery is not None else None

    def wrap(proxy, on_publish, on_request):
        server_id = proxy.server_id
        tracker = trackers[server_id] if trackers is not None else None

        def lease_gate(page_id, version, size, match_count, now):
            if deliverable(server_id, page_id, now)[0]:
                return on_publish(page_id, version, size, match_count, now)
            return SETTLED

        def repoll(page_id, version, size, match_count, now, held):
            """The access heals lapsed subscription state before the
            request is served; under the delivery protocol it also
            teaches the proxy's tracker the current version, so a lagging
            copy takes the stale-miss path, not the silently-stale one."""
            if on_access(server_id, page_id, now) is not None:
                if held is not None and held < version:
                    # The missed notifications had real cost: the
                    # proxy's copy is behind the origin at repair time.
                    lifecycle.stale_serves += 1
                if tracker is not None:
                    tracker.learn(page_id, version)
            return on_request(page_id, version, size, match_count, now, held)

        return lease_gate, repoll

    return wrap

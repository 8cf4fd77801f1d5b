"""Subscription churn: seeded lease/renewal/unsubscribe event streams.

The paper treats the subscription base as static for a run (§4.3 builds
one match-count table and keeps it).  Its target domain — proxies
subscribing on behalf of shifting user populations — implies constant
churn, and real hub protocols (the PubSubHubbub model this module
follows) survive it with *leases*: a subscription is granted for a
bounded duration, must be renewed before expiry, and silently lapses
otherwise.

This module generates that lifecycle as a third static event stream
riding alongside the publish and request streams:

* every (page, proxy) subscription cell of the trace receives an
  initial ``subscribe`` at t = 0 carrying a lease duration drawn from
  an exponential around :attr:`ChurnSpec.lease_duration`;
* before each expiry the subscriber *renews* with probability
  :attr:`ChurnSpec.renew_probability`; otherwise the lease **silently
  lapses** — no event marks the expiry, which is exactly the failure
  mode the simulator's re-poll repair exists for — and a fresh
  ``subscribe`` arrives after an exponential comeback gap;
* explicit ``unsubscribe`` events occur at rate
  :attr:`ChurnSpec.churn_rate` (cycles per subscriber per day), also
  followed by a later re-subscribe.

All draws come from one dedicated RNG stream (``"workload.churn"`` by
convention), so a workload generated without churn is bit-identical to
the pre-churn generator output: no other stream's draw order moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.workload.config import DAY, HOUR
from repro.workload.validate import validate_churn_spec

#: Safety valve: at pathological parameter combinations (micro-leases
#: over a week-long horizon) one subscriber could otherwise emit
#: unbounded event chains.
MAX_EVENTS_PER_SUBSCRIBER = 2000

#: The lifecycle event kinds, in their deterministic same-time order.
LIFECYCLE_KINDS: Tuple[str, ...] = ("subscribe", "renew", "unsubscribe")

_KIND_ORDER = {kind: index for index, kind in enumerate(LIFECYCLE_KINDS)}


@dataclass(frozen=True)
class ChurnSpec:
    """Parameters of the subscription-lifecycle workload dimension.

    A spec being *present* on a workload is what turns the lifecycle
    layer on; every knob has a conservative default so that
    ``ChurnSpec()`` describes slow, mostly-renewing subscribers.
    """

    #: Mean explicit unsubscribe/resubscribe cycles per subscriber per
    #: day (0 disables explicit unsubscribes; leases still lapse
    #: whenever a renewal does not happen).
    churn_rate: float = 0.0
    #: Mean lease duration in seconds (exponentially distributed).
    lease_duration: float = 6 * HOUR
    #: Floor on a drawn lease duration (seconds).
    lease_min: float = 10 * 60.0
    #: Probability an expiring lease is renewed in time.
    renew_probability: float = 0.8
    #: Mean gap before a lapsed or unsubscribed subscriber comes back
    #: (seconds, exponentially distributed).
    resubscribe_delay: float = 1 * HOUR
    #: Probability one subscribe/renew confirmation message is lost in
    #: the handshake (drawn at simulation time from the dedicated
    #: ``"faults.lifecycle"`` stream; 0 keeps the handshake reliable
    #: and draw-free).
    confirmation_loss_probability: float = 0.0
    #: Maximum confirmation retries after a lost handshake message.
    confirm_retry_limit: int = 3
    #: Timeout before the first confirmation retry (seconds); doubles
    #: per attempt up to ``confirm_backoff_cap``.
    confirm_timeout: float = 2.0
    #: Cap on a single confirmation backoff step (seconds).
    confirm_backoff_cap: float = 60.0
    #: Bound on concurrently pending handshakes per subscriber work
    #: queue; an overflowing handshake is abandoned (stays pending
    #: until access-time re-poll).
    queue_limit: int = 64

    def __post_init__(self) -> None:
        # The checks live in repro.workload.validate so the trace
        # auditing module owns every workload-parameter rejection.
        validate_churn_spec(self)


@dataclass(frozen=True)
class LifecycleRecord:
    """One subscription lifecycle event in the trace.

    ``kind`` is one of :data:`LIFECYCLE_KINDS`; ``lease`` carries the
    granted/extended lease duration for ``subscribe``/``renew`` events
    and is 0 for ``unsubscribe``.
    """

    time: float
    server_id: int
    page_id: int
    kind: str
    lease: float = 0.0


def _sort_key(record: LifecycleRecord) -> Tuple[float, int, int, int]:
    return (
        record.time,
        record.server_id,
        record.page_id,
        _KIND_ORDER.get(record.kind, len(LIFECYCLE_KINDS)),
    )


def generate_churn(
    pairs: Iterable[Tuple[int, int]],
    horizon: float,
    spec: ChurnSpec,
    rng: np.random.Generator,
) -> List[LifecycleRecord]:
    """Generate the lifecycle event stream for a set of subscribers.

    Args:
        pairs: the ``(page_id, server_id)`` subscription cells (one
            lease timeline each); deduplicated and sorted internally so
            generation is independent of input order.
        horizon: simulation horizon in seconds.
        spec: churn parameters.
        rng: the dedicated ``"workload.churn"`` stream.

    Returns:
        Lifecycle events sorted by ``(time, server_id, page_id, kind)``
        — the exact order the replay processes them in.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    events: List[LifecycleRecord] = []
    unsubscribe_mean = (
        DAY / spec.churn_rate if spec.churn_rate > 0.0 else float("inf")
    )

    def draw_lease() -> float:
        return max(spec.lease_min, float(rng.exponential(spec.lease_duration)))

    for page_id, server_id in sorted(set((int(p), int(s)) for p, s in pairs)):
        emitted = 0
        now = 0.0
        lease = draw_lease()
        events.append(
            LifecycleRecord(
                time=now,
                server_id=server_id,
                page_id=page_id,
                kind="subscribe",
                lease=lease,
            )
        )
        emitted += 1
        expiry = now + lease
        while emitted < MAX_EVENTS_PER_SUBSCRIBER:
            if unsubscribe_mean != float("inf"):
                next_unsub = now + float(rng.exponential(unsubscribe_mean))
            else:
                next_unsub = float("inf")
            if next_unsub < expiry and next_unsub < horizon:
                # Explicit churn: the subscriber walks away mid-lease...
                events.append(
                    LifecycleRecord(
                        time=next_unsub,
                        server_id=server_id,
                        page_id=page_id,
                        kind="unsubscribe",
                    )
                )
                emitted += 1
                comeback = next_unsub + float(
                    rng.exponential(spec.resubscribe_delay)
                )
                if comeback >= horizon:
                    break
                # ... and comes back with a fresh lease later.
                lease = draw_lease()
                events.append(
                    LifecycleRecord(
                        time=comeback,
                        server_id=server_id,
                        page_id=page_id,
                        kind="subscribe",
                        lease=lease,
                    )
                )
                emitted += 1
                now = comeback
                expiry = now + lease
                continue
            if expiry >= horizon:
                break
            if float(rng.random()) < spec.renew_probability:
                # Renew shortly before the wire; the renewal's lease
                # clock starts at the renewal, so expiry always grows
                # (lease_min bounds the lead from below).
                renew_at = max(now, expiry - 0.1 * min(lease, spec.lease_min))
                lease = draw_lease()
                events.append(
                    LifecycleRecord(
                        time=renew_at,
                        server_id=server_id,
                        page_id=page_id,
                        kind="renew",
                        lease=lease,
                    )
                )
                emitted += 1
                now = renew_at
                expiry = renew_at + lease
            else:
                # Silent lapse: no event at expiry — the subscriber
                # simply stops being covered and re-subscribes later.
                comeback = expiry + float(rng.exponential(spec.resubscribe_delay))
                if comeback >= horizon:
                    break
                lease = draw_lease()
                events.append(
                    LifecycleRecord(
                        time=comeback,
                        server_id=server_id,
                        page_id=page_id,
                        kind="subscribe",
                        lease=lease,
                    )
                )
                emitted += 1
                now = comeback
                expiry = comeback + lease
    events.sort(key=_sort_key)
    return events


def churn_statistics(events: Sequence[LifecycleRecord]) -> dict:
    """Summary counts of a lifecycle stream (reports and tests)."""
    counts = {kind: 0 for kind in LIFECYCLE_KINDS}
    subscribers = set()
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        subscribers.add((event.server_id, event.page_id))
    return {
        "events": len(events),
        "subscribers": len(subscribers),
        **counts,
    }

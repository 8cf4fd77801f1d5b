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
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.obs.log import get_logger
from repro.workload.config import DAY, HOUR
from repro.workload.trace import ROW_DTYPES, EventTable, sorted_rows
from repro.workload.validate import validate_churn_spec

logger = get_logger(__name__)

#: Safety valve: at pathological parameter combinations (micro-leases
#: over a week-long horizon) one subscriber could otherwise emit
#: unbounded event chains.
MAX_EVENTS_PER_SUBSCRIBER = 2000

#: The lifecycle event kinds, in their deterministic same-time order.  A
#: table row stores a kind as its index here, named below.
LIFECYCLE_KINDS: Tuple[str, ...] = ("subscribe", "renew", "unsubscribe")
SUBSCRIBE, RENEW, UNSUBSCRIBE = range(len(LIFECYCLE_KINDS))

_KIND_CODE = {kind: code for code, kind in enumerate(LIFECYCLE_KINDS)}


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


@dataclass(frozen=True, slots=True)
class LifecycleRecord:
    """One subscription lifecycle event in the trace.

    ``kind`` is one of :data:`LIFECYCLE_KINDS`; ``lease`` carries the
    granted/extended lease duration for ``subscribe``/``renew`` events
    and is 0 for ``unsubscribe``.  The trace holds the stream as a table
    (``workload.lifecycle``) and builds a record only where a caller
    indexes or iterates it; ``to_row`` / ``from_row`` / ``check_rows``
    are what :class:`~repro.workload.trace.EventTable` calls for a
    record whose row stores a field differently (the kind, as a code).
    """

    time: float
    server_id: int
    page_id: int
    kind: str
    lease: float = 0.0

    def to_row(self) -> Tuple[float, int, int, int, float]:
        code = _KIND_CODE.get(self.kind)
        if code is None:
            raise ValueError(
                f"unknown lifecycle kind {self.kind!r} "
                f"(expected one of {', '.join(LIFECYCLE_KINDS)})"
            )
        return (self.time, self.server_id, self.page_id, code, self.lease)

    @classmethod
    def from_row(cls, time, server_id, page_id, code, lease) -> "LifecycleRecord":
        return cls(time, server_id, page_id, LIFECYCLE_KINDS[code], lease)

    @staticmethod
    def check_rows(rows: np.ndarray) -> None:
        """Reject stored rows whose kind is not a code of :data:`LIFECYCLE_KINDS`."""
        unknown = np.setdiff1d(rows["kind"], range(len(LIFECYCLE_KINDS)))
        if len(unknown):
            raise ValueError(f"unknown lifecycle kind code(s) {unknown.tolist()}")


#: Row layout of the lifecycle table, registered beside its record so a
#: churn-free run imports neither.  The first four fields are the
#: stream's sort key; full-key ties keep generation order.
ROW_DTYPES[LifecycleRecord] = np.dtype(
    [("time", "<f8"), ("server_id", "<i4"), ("page_id", "<i4"), ("kind", "i1"), ("lease", "<f8")]
)


def generate_churn(
    pairs: Iterable[Tuple[int, int]],
    horizon: float,
    spec: ChurnSpec,
    rng: np.random.Generator,
) -> EventTable:
    """Generate the lifecycle event stream for a set of subscribers.

    Args:
        pairs: the ``(page_id, server_id)`` subscription cells (one
            lease timeline each); deduplicated and sorted internally so
            generation is independent of input order.
        horizon: simulation horizon in seconds.
        spec: churn parameters.
        rng: the dedicated ``"workload.churn"`` stream.

    Returns:
        The lifecycle table, sorted by ``(time, server_id, page_id,
        kind)`` — the exact order the replay processes it in.

    The draws stay scalar and in this sequence: they interleave
    ``exponential`` and ``random`` data-dependently, so a batched draw
    would be a different stream.  Only what happens to the drawn values
    is columnar — one time, kind and lease appended per event, the cell
    ids repeated per subscriber afterwards, one stable ``lexsort``.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    times, kinds, leases = [], [], []  # one entry per event, in generation order
    unsubscribe_mean = (
        DAY / spec.churn_rate if spec.churn_rate > 0.0 else float("inf")
    )

    def draw_lease() -> float:
        return max(spec.lease_min, float(rng.exponential(spec.lease_duration)))

    cells = sorted(set((int(p), int(s)) for p, s in pairs))
    starts = []  # index of each cell's first event
    cut_offs = []  # last event time of each chain the cap ended
    for _cell in cells:
        starts.append(len(times))
        cap = len(times) + MAX_EVENTS_PER_SUBSCRIBER
        now = 0.0
        lease = draw_lease()
        times.append(now)
        kinds.append(SUBSCRIBE)
        leases.append(lease)
        expiry = now + lease
        while len(times) < cap:
            if unsubscribe_mean != float("inf"):
                next_unsub = now + float(rng.exponential(unsubscribe_mean))
            else:
                next_unsub = float("inf")
            if next_unsub < expiry and next_unsub < horizon:
                # Explicit churn: the subscriber walks away mid-lease
                # and comes back with a fresh lease later.
                times.append(next_unsub)
                kinds.append(UNSUBSCRIBE)
                leases.append(0.0)
                gone = next_unsub
            elif expiry >= horizon:
                break
            elif float(rng.random()) < spec.renew_probability:
                # Renew shortly before the wire; the renewal's lease
                # clock starts at the renewal, so expiry always grows
                # (lease_min bounds the lead from below).
                now = max(now, expiry - 0.1 * min(lease, spec.lease_min))
                lease = draw_lease()
                times.append(now)
                kinds.append(RENEW)
                leases.append(lease)
                expiry = now + lease
                continue
            else:
                # Silent lapse: no event at expiry — the subscriber
                # simply stops being covered and re-subscribes later.
                gone = expiry
            now = gone + float(rng.exponential(spec.resubscribe_delay))
            if now >= horizon:
                break
            lease = draw_lease()
            times.append(now)
            kinds.append(SUBSCRIBE)
            leases.append(lease)
            expiry = now + lease
        else:
            # The cap, not the horizon, ended this chain: the cell is
            # uncovered from ``now`` on, which the spec never asked for.
            cut_offs.append(now)
    if cut_offs:
        logger.warning(
            "churn: %d subscriber(s) hit the %d-event cap; the earliest chain "
            "stops at t=%.0f s of a %.0f s horizon and every later access of "
            "those cells sees an expired lease",
            len(cut_offs), MAX_EVENTS_PER_SUBSCRIBER, min(cut_offs), horizon,
        )
    page_ids, server_ids = np.array(cells, dtype=np.int32).reshape(-1, 2).T
    per_cell = np.diff([*starts, len(times)])
    columns = (
        np.array(times, dtype=np.float64),
        np.repeat(server_ids, per_cell),
        np.repeat(page_ids, per_cell),
        np.array(kinds, dtype=np.int8),
        np.array(leases, dtype=np.float64),
    )
    return EventTable(
        LifecycleRecord, sorted_rows(ROW_DTYPES[LifecycleRecord], columns, keys=4)
    )


def churn_statistics(events: Sequence[LifecycleRecord]) -> dict:
    """Summary counts of a lifecycle stream (reports and tests)."""
    if not isinstance(events, EventTable):
        events = EventTable(LifecycleRecord, events)
    rows = events.rows
    counts = np.bincount(rows["kind"], minlength=len(LIFECYCLE_KINDS)).tolist()
    cells = np.unique(rows["server_id"].astype(np.int64) << 32 | rows["page_id"])
    return {
        "events": len(rows),
        "subscribers": len(cells),
        **dict(zip(LIFECYCLE_KINDS, counts)),
    }

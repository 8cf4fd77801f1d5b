"""Overload and backpressure: finite service capacity under load.

The paper's proxies and origin absorb unlimited concurrent work, so the
reproduction can never exhibit the overload regime where push-based
strategies earn their keep.  This module makes capacity finite, in
three independently armed parts (see
:class:`~repro.faults.spec.OverloadSpec`):

* :class:`ServiceQueue` — a bounded deterministic service queue per
  proxy (icarus-style): each admitted job occupies ``1/service_rate``
  seconds of a single server, arrivals beyond ``queue_capacity`` are
  rejected, and *pushes are shed before pulls* (they lose admission at
  a lower occupancy threshold — the paper's subscriber-first model).
  Average queue size is sampled at arrivals, rejection percentage over
  all arrivals, matching icarus' ``AVERAGE_QUEUE_SIZE`` /
  ``PERCENTAGE_OF_REJECTION`` collectors.
* :class:`TokenBucket` + :class:`CircuitBreaker` — origin admission
  control.  Fetches spend bucket tokens refilled at
  ``origin_capacity``/s; consecutive rejections trip the breaker open,
  which fast-fails fetches (proxies degrade to serving stale copies)
  until a cooldown — optionally jittered from the ``faults.overload``
  stream — half-opens it for probes.
* :class:`RetryBudget` — a global cap on *extra* attempts shared by
  every ``retry_instants`` walk (origin retries, delivery retransmits,
  lifecycle confirms), plus seeded per-step jitter, so synchronized
  retries cannot re-overload a recovering origin.

Everything except the two jitter knobs is deterministic — no RNG
stream is derived unless jitter is requested — and the whole layer
allocates nothing when :attr:`OverloadSpec.enabled` is false, keeping
disabled runs bit-identical (the NULL discipline every optional layer
here follows).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional

import numpy as np

from repro.faults.spec import OverloadSpec

__all__ = [
    "CircuitBreaker",
    "OverloadManager",
    "OverloadSpec",
    "RetryBudget",
    "ServiceQueue",
    "TokenBucket",
]


class ServiceQueue:
    """Bounded single-server queue with deterministic service times.

    Jobs are never simulated as DES events: an admitted job's
    completion time is ``max(now, last_finish) + 1/rate`` (work
    conserving, FIFO), committed into a min-heap that is lazily drained
    at the next arrival.  Occupancy is therefore an exact M/D/1-style
    queue length at every arrival instant while costing one heap op per
    job — the same lazy-drain pattern as ``SubscriberQueue`` and the
    delivery retransmit queue.
    """

    __slots__ = (
        "service_time",
        "capacity",
        "push_capacity",
        "_finish",
        "_last_finish",
        "arrivals",
        "rejected_pulls",
        "rejected_pushes",
        "occupancy_sum",
        "peak",
    )

    def __init__(self, rate: float, capacity: int, push_shed_fraction: float) -> None:
        self.service_time = 1.0 / rate
        self.capacity = capacity
        # Pushes are shed first: they lose admission once occupancy
        # reaches this lower threshold, leaving headroom for pulls.
        self.push_capacity = max(1, int(capacity * push_shed_fraction))
        self._finish: List[float] = []
        self._last_finish = 0.0
        self.arrivals = 0
        self.rejected_pulls = 0
        self.rejected_pushes = 0
        self.occupancy_sum = 0
        self.peak = 0

    def offer(self, now: float, push: bool) -> bool:
        """Admit or reject one arriving job; True when admitted."""
        finish = self._finish
        while finish and finish[0] <= now:
            heappop(finish)
        occupancy = len(finish)
        self.arrivals += 1
        self.occupancy_sum += occupancy
        limit = self.push_capacity if push else self.capacity
        if occupancy >= limit:
            if push:
                self.rejected_pushes += 1
            else:
                self.rejected_pulls += 1
            return False
        start = self._last_finish if self._last_finish > now else now
        done = start + self.service_time
        self._last_finish = done
        heappush(finish, done)
        if occupancy + 1 > self.peak:
            self.peak = occupancy + 1
        return True

    @property
    def rejected(self) -> int:
        return self.rejected_pulls + self.rejected_pushes

    @property
    def average_queue_size(self) -> float:
        """Mean jobs in system seen by an arrival (icarus semantics)."""
        return self.occupancy_sum / self.arrivals if self.arrivals else 0.0

    @property
    def rejection_fraction(self) -> float:
        return self.rejected / self.arrivals if self.arrivals else 0.0


class TokenBucket:
    """A token-bucket admission gate (``rate`` tokens/s, ``burst`` cap).

    ``last`` may sit in the future: analytic retry timelines commit
    admissions at planned future instants (the same forward-commitment
    the delivery planner makes), so refill clamps elapsed time at zero
    instead of going negative.
    """

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last = 0.0

    def admit(self, now: float) -> bool:
        elapsed = now - self.last
        if elapsed > 0.0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
            self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


#: Circuit-breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """Classic three-state breaker with lazy, time-driven transitions.

    ``threshold`` consecutive failures open it; after ``cooldown``
    seconds (plus optional seeded jitter) it half-opens and admits
    probes; ``probe_successes`` consecutive probe successes close it,
    any probe failure re-opens it.  Transitions happen lazily inside
    :meth:`allow`, so the breaker needs no agenda events.
    """

    __slots__ = (
        "threshold",
        "cooldown",
        "probe_successes",
        "jitter",
        "_rng",
        "state",
        "_failures",
        "_successes",
        "_opened_at",
        "_reopen_at",
        "open_count",
        "open_seconds",
        "fast_failures",
    )

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        probe_successes: int,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.probe_successes = probe_successes
        self.jitter = jitter
        self._rng = rng
        self.state = CLOSED
        self._failures = 0
        self._successes = 0
        self._opened_at = 0.0
        self._reopen_at = 0.0
        self.open_count = 0
        self.open_seconds = 0.0
        self.fast_failures = 0

    def _cooldown(self) -> float:
        if self.jitter > 0.0 and self._rng is not None:
            return self.cooldown * (1.0 + self.jitter * float(self._rng.random()))
        return self.cooldown

    def _open(self, now: float) -> None:
        self.state = OPEN
        self.open_count += 1
        self._opened_at = now
        self._reopen_at = now + self._cooldown()
        self._failures = 0
        self._successes = 0

    def allow(self, now: float) -> bool:
        """Whether a request may reach the guarded resource at ``now``."""
        if self.state == OPEN:
            if now < self._reopen_at:
                self.fast_failures += 1
                return False
            self.open_seconds += self._reopen_at - self._opened_at
            self.state = HALF_OPEN
            self._successes = 0
        return True

    def record_success(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._successes += 1
            if self._successes >= self.probe_successes:
                self.state = CLOSED
        self._failures = 0

    def record_failure(self, now: float) -> None:
        if self.state == HALF_OPEN:
            self._open(now)
            return
        self._failures += 1
        if self.state == CLOSED and self._failures >= self.threshold:
            self._open(now)

    def finalize(self, horizon: float) -> None:
        """Close the books: charge an open interval cut by run end."""
        if self.state == OPEN:
            end = min(self._reopen_at, horizon)
            if end > self._opened_at:
                self.open_seconds += end - self._opened_at
            self.state = CLOSED


class RetryBudget:
    """A global token pool of *extra* attempts, optionally refilling."""

    __slots__ = ("budget", "rate", "tokens", "last", "spent", "denied")

    def __init__(self, budget: int, rate: float = 0.0) -> None:
        self.budget = budget
        self.rate = rate
        self.tokens = float(budget)
        self.last = 0.0
        self.spent = 0
        self.denied = 0

    def allow(self, now: float) -> bool:
        if self.rate > 0.0:
            elapsed = now - self.last
            if elapsed > 0.0:
                self.tokens = min(
                    float(self.budget), self.tokens + elapsed * self.rate
                )
                self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False


class OverloadManager:
    """Facade the simulator drives; owns queues, gate, breaker, budget.

    Each part exists only when its knob arms it, and every method is a
    cheap no-op (constant True) for unarmed parts, so a partially
    configured spec pays only for what it turned on.
    """

    def __init__(
        self,
        spec: OverloadSpec,
        server_ids,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.spec = spec
        self.queues: Dict[int, ServiceQueue] = {}
        if spec.service_rate > 0.0:
            self.queues = {
                server_id: ServiceQueue(
                    spec.service_rate, spec.queue_capacity, spec.push_shed_fraction
                )
                for server_id in server_ids
            }
        self.bucket: Optional[TokenBucket] = None
        self.breaker: Optional[CircuitBreaker] = None
        if spec.origin_capacity > 0.0:
            self.bucket = TokenBucket(spec.origin_capacity, spec.origin_burst)
            self.breaker = CircuitBreaker(
                spec.breaker_threshold,
                spec.breaker_cooldown,
                spec.breaker_probe_successes,
                spec.breaker_jitter,
                rng,
            )
        self.budget: Optional[RetryBudget] = None
        if spec.retry_budget > 0:
            self.budget = RetryBudget(spec.retry_budget, spec.retry_budget_rate)
        self._rng = rng
        #: Origin fetches refused by the gate or fast-failed by the
        #: open breaker (for the result/summary counters).
        self.origin_rejections = 0
        #: Requests answered with a cached stale copy because origin
        #: admission refused the fetch (serve-stale degraded mode).
        self.stale_serves = 0

    # -- per-proxy service queues -------------------------------------------

    def admit(self, server_id: int, now: float, push: bool) -> bool:
        """Offer one job to ``server_id``'s queue; True when admitted."""
        queue = self.queues.get(server_id)
        if queue is None:
            return True
        return queue.offer(now, push)

    # -- origin admission -----------------------------------------------------

    def origin_admit(self, now: float) -> bool:
        """Whether one origin fetch is admitted at ``now``."""
        if self.bucket is None:
            return True
        if not self.breaker.allow(now):
            self.origin_rejections += 1
            return False
        if self.bucket.admit(now):
            self.breaker.record_success(now)
            return True
        self.breaker.record_failure(now)
        self.origin_rejections += 1
        return False

    def breaker_open(self) -> bool:
        return self.breaker is not None and self.breaker.state == OPEN

    # -- retry-storm protection ----------------------------------------------

    def allow_retry(self, now: float) -> bool:
        """Whether one *extra* attempt fits the global retry budget."""
        if self.budget is None:
            return True
        return self.budget.allow(now)

    def jitter_backoff(self, backoff: float) -> float:
        """Stretch one backoff step by the seeded jitter fraction."""
        if self.spec.retry_jitter > 0.0 and self._rng is not None:
            return backoff * (1.0 + self.spec.retry_jitter * float(self._rng.random()))
        return backoff

    # -- bookkeeping ----------------------------------------------------------

    def collect(self, result, horizon: float) -> None:
        """Close the books at ``horizon`` and write the overload block
        of ``result`` (per-proxy lists are in server order)."""
        breaker = self.breaker
        if breaker is not None:
            breaker.finalize(horizon)
        result.overload_arrivals = self.queue_arrivals
        result.overload_pushes_shed = self.queue_rejected_pushes
        result.overload_pulls_rejected = self.queue_rejected_pulls
        result.average_queue_size = self.average_queue_size
        queues = self.queues.values()
        if queues:
            result.overload_queue_peak = max(queue.peak for queue in queues)
            result.overload_queue_avg_by_proxy = [
                queue.average_queue_size for queue in queues
            ]
            result.overload_queue_rejection_by_proxy = [
                100.0 * queue.rejection_fraction for queue in queues
            ]
        result.origin_rejections = self.origin_rejections
        if breaker is not None:
            result.breaker_opens = breaker.open_count
            result.breaker_open_seconds = breaker.open_seconds
            result.breaker_open_fraction = (
                breaker.open_seconds / horizon if horizon > 0 else 0.0
            )
            result.breaker_fast_failures = breaker.fast_failures
        budget = self.budget
        if budget is not None:
            result.retry_budget_spent = budget.spent
            result.retries_denied = budget.denied
        result.overload_stale_serves = self.stale_serves

    @property
    def queue_arrivals(self) -> int:
        return sum(q.arrivals for q in self.queues.values())

    @property
    def queue_rejected_pulls(self) -> int:
        return sum(q.rejected_pulls for q in self.queues.values())

    @property
    def queue_rejected_pushes(self) -> int:
        return sum(q.rejected_pushes for q in self.queues.values())

    @property
    def average_queue_size(self) -> float:
        """Fleet-wide mean occupancy seen by an arrival."""
        arrivals = self.queue_arrivals
        if not arrivals:
            return 0.0
        occupancy = sum(q.occupancy_sum for q in self.queues.values())
        return occupancy / arrivals

    def queue_metrics_by_proxy(self) -> Dict[int, Dict[str, float]]:
        """Per-proxy ``AVERAGE_QUEUE_SIZE`` / ``PERCENTAGE_OF_REJECTION``."""
        return {
            server_id: {
                "average_queue_size": queue.average_queue_size,
                "rejection_percentage": 100.0 * queue.rejection_fraction,
                "arrivals": float(queue.arrivals),
                "rejected_pushes": float(queue.rejected_pushes),
                "rejected_pulls": float(queue.rejected_pulls),
                "peak": float(queue.peak),
            }
            for server_id, queue in self.queues.items()
        }

"""The top-level simulation: workload replay over the DES engine.

:class:`Simulation` wires together the workload trace, the subscription
table (eq. 7), the topology-derived fetch costs, one policy instance
per proxy and the publisher, then replays the publish and request
streams as one merged static stream (``Simulation._replay``), with
:class:`repro.sim.Environment` holding only the dynamic events — fault
transitions and delayed notification copies.  At equal times a
publish precedes a request, so a page exists before it is read.

Traffic accounting (§5.6) happens here, not in the policies:

* under **Always-Pushing** every matched publication transfers the page
  to the proxy, stored or not;
* under **Pushing-When-Necessary** only accepted placements transfer
  content (the meta-information handshake is control traffic, ignored
  in the page/byte counts as in the paper);
* every cache miss transfers the page from the publisher once.

So does request counting: every replay records one outcome code per
request, and ``Simulation._count_requests`` counts requests, hits,
bytes, fetches and latency from those codes after the loop.

Every run replays through one loop (``Simulation._loop``).  Chaos
(:mod:`repro.faults.gates`), delivery, churn and overload
(:mod:`repro.system.delivery`, ``lifecycle``, ``overload``) each add
per-proxy wrappers around the calls it makes, ending in this module's
settling tails (origin retries with capped backoff, degraded links);
cooperation (:mod:`repro.system.cooperation`) changes where a miss is
resolved.

Requests the policies never see (failover and failures) get codes of
their own and are merged into the request totals at collection time,
so hit ratio, availability and the hourly series all share one
denominator.
"""

from __future__ import annotations

import math
import time
from array import array
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.policy import HIT, STALE
from repro.core.registry import make_policy_lenient
from repro.faults import LIFECYCLE_STREAM
from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.network.topology import Topology, build_topology
from repro.obs.log import get_logger
from repro.obs.recorder import NULL_OBSERVER, Observer
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.engine import Environment, agenda_stream
from repro.sim.rng import RandomStreams
from repro.system.config import (
    HIT_LATENCY,
    PER_HOP_LATENCY,
    PushingScheme,
    SimulationConfig,
)
from repro.system.metrics import SimulationResult, dense_counts
from repro.system.proxy import SETTLED, ProxyServer
from repro.system.publisher import Publisher
from repro.workload.subscriptions import build_match_counts
from repro.workload.trace import Workload

if TYPE_CHECKING:  # the layers are imported by the branch that arms them
    from repro.faults.recovery import RecoveryTracker
    from repro.faults.schedule import FaultSchedule
    from repro.system.cooperation import Peers
    from repro.system.delivery import ReliableDelivery
    from repro.system.lifecycle import LifecycleManager
    from repro.system.overload import OverloadManager

logger = get_logger(__name__)

#: Safety cap on modelled retransmissions over one lossy transfer.
_MAX_RETRANSMITS = 8

#: Origin-fetch retries while the publisher is down or the origin gate
#: refuses (``Simulation._origin_wait``): at most ``RETRY_LIMIT``
#: retries, the first after ``RETRY_BASE`` seconds, doubling per attempt
#: up to ``RETRY_CAP`` seconds a step.
RETRY_LIMIT = 4
RETRY_BASE = 0.5
RETRY_CAP = 8.0

#: Request rows :meth:`Simulation._count_requests` reads at a time.
COUNT_ROWS = 4096

#: Outcome codes of a request no policy saw, beyond a policy's
#: ``MISS`` / ``HIT`` / ``STALE``: resolved off-proxy, or failed.
UNSERVED, FAILED = 3, 4
#: Flag added to any code of a degraded request.
DEGRADED = 8
#: Trace-event kind of a policy's outcome code.
KINDS = ("miss", "hit", "stale")
#: A composed request's outcome as the loop reads it, by its code.
_CODED = tuple(SimpleNamespace(code=code) for code in range(2 * DEGRADED))


def _probed(serve, held_version):
    """The composed request path, given the proxy's one cache probe."""

    def on_request(page_id, version, size, match_count, now):
        return _CODED[serve(page_id, version, size, match_count, now, held_version(page_id))]

    return on_request


def _announced(on_publish, obs, server_id):
    """``on_publish`` announcing the match before any wrapper acts."""

    def announced(page_id, version, size, match_count, now):
        obs.match(now, page_id, server_id, match_count)
        return on_publish(page_id, version, size, match_count, now)

    return announced


def _offered(on_publish, obs, server_id):
    """A policy's ``on_publish`` reporting the offer and its outcome."""

    def offered(page_id, version, size, match_count, now):
        obs.push_offer(now, page_id, server_id)
        outcome = on_publish(page_id, version, size, match_count, now)
        if outcome.stored:
            obs.push_accept(now, page_id, server_id, outcome.refreshed)
        else:
            obs.push_reject(now, page_id, server_id)
        return outcome

    return offered


def _observed(policy, obs, server_id):
    """The policy's own ``(on_publish, on_request)``, announced to
    ``obs``: what an observed plain run calls.  A request for a version
    the policy does not hold is fetched from the origin first."""
    on_request, held_version = policy.on_request, policy.held_version
    miss_latency = HIT_LATENCY + PER_HOP_LATENCY * policy.cost

    def request(page_id, version, size, match_count, now):
        if held_version(page_id) != version:
            obs.fetch(now, page_id, server_id)
        outcome = on_request(page_id, version, size, match_count, now)
        code = outcome.code
        obs.request_outcome(
            now, page_id, server_id, KINDS[code], HIT_LATENCY if code == HIT else miss_latency
        )
        return outcome

    return _announced(_offered(policy.on_publish, obs, server_id), obs, server_id), request


def cell_inputs(
    workload: Workload,
    seed: int,
    subscription_quality: float,
    notified_fraction: float,
    match_table: Optional[TraceMatchCounts] = None,
    topology: Optional[Topology] = None,
) -> Tuple[TraceMatchCounts, Topology]:
    """The match table and topology of one cell: what the caller handed
    in, else derived from ``seed``'s own ``subscriptions`` / ``topology``
    streams (independent per name, so order does not matter).  The one
    place either is built: a run, a sharded run and the runner's memo
    all come here, and neither is ever stored."""
    streams = RandomStreams(seed)
    if match_table is None:
        match_table = TraceMatchCounts(
            build_match_counts(
                workload.pair_counts(),
                subscription_quality,
                streams.stream("subscriptions"),
                notified_fraction=notified_fraction,
            )
        )
    if topology is None:
        topology = build_topology(workload.config.server_count, streams.stream("topology"))
    return match_table, topology


class Simulation:
    """One strategy, one trace, one configuration.

    The opt-in layers are armed by what the arguments carry: a
    ``config.chaos`` spec or a hand-built ``fault_schedule`` (faults,
    and reliable delivery when the push path itself can fail),
    ``config.overload``, lifecycle records on the ``workload`` (churn),
    and ``neighbor_count > 0`` (cooperation: each proxy asks that many
    nearest peers before the origin; 0 is the paper's independent
    proxies).  An armed layer is one object here and its wrappers around
    each proxy's publish and request calls, composed once per run
    (:meth:`_compose`); a disarmed one is absent.

    ``processes > 1`` replays the proxies in that many shards, this
    process and forked workers (:mod:`repro.system.sharding`), and
    counts their requests here once; a run with anything that couples
    the proxies — a layer or an observer — cannot, and is refused.
    """

    def __init__(
        self,
        workload: Workload,
        config: SimulationConfig,
        match_table: Optional[TraceMatchCounts] = None,
        topology: Optional[Topology] = None,
        fault_schedule: Optional[FaultSchedule] = None,
        observer: Optional[Observer] = None,
        neighbor_count: int = 0,
        processes: int = 1,
    ) -> None:
        if neighbor_count < 0 or neighbor_count % 1:  # nan and inf included
            raise ValueError(
                f"neighbor_count must be an integer >= 0, got {neighbor_count}"
            )
        if processes > 1:
            from repro.system.sharding import shard_eligibility

            reason = shard_eligibility(workload, config, observer)
            if reason is None and (fault_schedule is not None or neighbor_count):
                reason = "a fault schedule or cooperating peers couple the proxies"
            if reason is not None:
                raise ValueError(f"cannot replay across {processes} processes: {reason}")
        self._processes = processes
        # Every table below is sized by the workload's pages and proxies
        # and indexed by the ids its events carry.
        workload.check_ids()
        self.workload = workload
        self.config = config
        # Observability is strictly read-only: hooks read state, never
        # change it or touch RNG streams, so an observed run's result
        # (minus wall_seconds) is bit-identical to an unobserved one's.
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._obs_on = self.obs.enabled
        #: Sim time of the handler currently running, for hooks (like
        #: the eviction listener) that fire below the handler layer.
        self._obs_now = 0.0
        streams = RandomStreams(config.seed)
        self._streams = streams

        match_table, topology = cell_inputs(
            workload, config.seed, config.subscription_quality, config.notified_fraction,
            match_table, topology,
        )
        self.match_table = match_table
        self.topology = topology

        costs = topology.fetch_costs()
        capacities = workload.capacities(config.capacity_fraction)
        self.publisher = Publisher(workload)
        self.proxies: List[ProxyServer] = []
        for server_id in range(workload.config.server_count):
            policy = make_policy_lenient(
                config.strategy,
                capacity_bytes=capacities[server_id],
                cost=costs[server_id % len(costs)],
                **config.strategy_options,
            )
            self.proxies.append(ProxyServer(server_id, policy))

        self._events_processed = 0
        #: The invariant cadence (0: off), read once.
        self._check_interval = config.invariant_check_interval
        self._env: Optional[Environment] = None

        # Each layer below is engaged only when armed: a disarmed one
        # allocates nothing and never derives its RNG stream, so every
        # other draw stays where it was (bit identity).

        # -- fault layer ---------------------------------------------------
        self.chaos: Optional[ChaosSpec] = config.chaos
        self.fault_schedule = fault_schedule
        if self.fault_schedule is None and config.chaos is not None:
            from repro.faults.generator import generate_fault_schedule

            self.fault_schedule = generate_fault_schedule(
                config.chaos,
                streams,
                horizon=workload.config.horizon,
                server_count=workload.config.server_count,
            )
        if self.fault_schedule is not None and self.chaos is None:
            # Hand-built schedule: use default degradation parameters.
            self.chaos = ChaosSpec()
        #: Present exactly when a fault schedule is: the recovery curves
        #: and the staleness-repair and suppressed-push books.
        self._recovery: Optional[RecoveryTracker] = None
        if self.fault_schedule is not None:
            from repro.faults.recovery import RecoveryTracker

            self._recovery = RecoveryTracker()
        #: A composed run's latency per request, in request order.
        self._latency: Optional[array] = None

        # -- overload/backpressure layer: a spec arming at least one part
        overload_spec: Optional[OverloadSpec] = config.overload
        self._overload: Optional[OverloadManager] = None
        if overload_spec is not None and overload_spec.enabled:
            from repro.faults.generator import derive_overload_rng
            from repro.system.overload import OverloadManager

            self._overload = OverloadManager(
                overload_spec,
                range(workload.config.server_count),
                rng=derive_overload_rng(overload_spec, streams),
            )

        # -- reliable-delivery layer: the push path itself can fail -----------
        self._delivery: Optional[ReliableDelivery] = None
        if self.fault_schedule is not None and (
            self.chaos.delivery_faulty or self.fault_schedule.has_broker_faults
        ):
            from repro.system.delivery import ReliableDelivery

            self._delivery = ReliableDelivery(
                self.chaos,
                self.fault_schedule,
                streams.stream("faults.delivery"),
                overload=self._overload,
                proxy_count=len(self.proxies),
                observer=self.obs,
            )

        # -- subscription-lifecycle layer: the workload has lifecycle rows ---
        self._lifecycle: Optional[LifecycleManager] = None
        if workload.lifecycle:
            from repro.system.lifecycle import LifecycleManager

            churn_spec = workload.churn
            if churn_spec is None:
                from repro.workload.churn import ChurnSpec

                churn_spec = ChurnSpec()
            lifecycle_rng = None
            if churn_spec.confirmation_loss_probability > 0.0:
                lifecycle_rng = streams.stream(LIFECYCLE_STREAM)
            self._lifecycle = LifecycleManager(
                churn_spec,
                workload.config.server_count,
                rng=lifecycle_rng,
                observer=self.obs,
                overload=self._overload,
            )

        # -- cooperation layer -----------------------------------------------
        self._peers: Optional[Peers] = None
        #: Where a local miss or a queue-rejected pull is resolved, called
        #: as ``self._off_proxy(self, proxy, server_id, page_id, version,
        #: size, now)``: the origin, or the peer chain that ends there.
        self._off_proxy = Simulation._origin_resolution
        if neighbor_count > 0:
            from repro.system.cooperation import Peers

            self._peers = Peers(self.topology, int(neighbor_count))
            self._off_proxy = self._peers.fetch

    # -- fault hooks (called by the FaultInjector) --------------------------

    def on_proxy_crash(self, server_id: int, now: float) -> None:
        proxy = self.proxies[server_id]
        self._recovery.on_crash(server_id, now)
        proxy.crash(now)
        if self._delivery is not None:
            # Cold restart: sequence state is in-memory too, so the
            # restarted proxy re-learns versions from scratch (its first
            # post-recovery delivery of a re-published page shows up as
            # a detected gap).
            self._delivery.trackers[server_id].reset()
        if self._obs_on:
            self.obs.crash(now, server_id)

    def on_proxy_recover(self, server_id: int, now: float) -> None:
        self.proxies[server_id].recover(now)
        self._recovery.on_recover(server_id, now)
        if self._obs_on:
            self.obs.restart(now, server_id)

    def on_publisher_outage(self, now: float) -> None:
        self.publisher.go_dark(now)
        if self._obs_on:
            self.obs.outage(now)

    def on_publisher_recover(self, now: float) -> None:
        self.publisher.come_back(now)
        if self._obs_on:
            self.obs.outage_end(now)

    # -- the settling tails: reached as ``partial(tail, sim, ...)`` (``_compose``)

    def _offer_push(self, offer, transfer_rejected, page_id, version, size, match_count, now):
        """Push-time placement: ``offer`` the page, account the transfer
        (also of a rejected push, with ``transfer_rejected``)."""
        outcome = offer(page_id, version, size, match_count, now)
        if outcome.stored or transfer_rejected:
            self.publisher.record_push_transfer(page_id, now)
        return SETTLED

    def _serve(
        self, proxy, server_id, page_id, version, size, match_count, now, held
    ) -> int:
        """Answer from the cache or fetch off-proxy; returns the
        request's outcome code.  ``held``, the cached version, mirrors
        ``on_request`` hit detection, so a miss can be resolved (and can
        fail, placing nothing) *before* the policy sees the request."""
        if held == version:
            return self._settle(
                proxy, server_id, page_id, version, size, match_count, now, HIT_LATENCY
            )
        resolution = self._off_proxy(self, proxy, server_id, page_id, version, size, now)
        if resolution is not None:
            code = self._settle(
                proxy, server_id, page_id, version, size, match_count, now,
                HIT_LATENCY + resolution[0],
            )
            if self._delivery is not None:
                # The fetch taught the proxy the current version.
                self._delivery.trackers[server_id].learn(page_id, version)
            return DEGRADED | code if resolution[1] else code
        overload = self._overload
        if overload is not None and overload.bucket is not None and held is not None:
            # Origin admission refused the fetch (breaker open or
            # bucket drained): degraded mode serves whatever version
            # is cached rather than failing the request.
            overload.stale_serves += 1
            if self._obs_on:
                self.obs.overload_stale(now, page_id, server_id)
            return DEGRADED | self._settle(
                proxy, server_id, page_id, held, size, match_count, now, HIT_LATENCY
            )
        # Retries exhausted: the request fails; nothing was placed
        # (the bytes never arrived at the proxy).
        return self._settle_unserved(server_id, page_id, now, None)

    def _settle(self, proxy, server_id, page_id, version, size, match_count, now, latency) -> int:
        """The policy answers the request for ``version``: the one tail
        every served request ends in; returns the outcome's code.

        Asked for the version it *holds*, the policy returns a plain
        hit — also for a silently stale or overload-stale copy, where
        from the proxy's point of view nothing is wrong; those callers
        keep the oracle's books themselves.  Asked for the current
        version after an off-proxy fetch, it returns a miss or stale.
        """
        code = proxy.policy.on_request(page_id, version, size, match_count, now).code
        if self._recovery is not None:
            self._recovery.on_request(server_id, code == HIT, now)
        self._latency.append(latency)
        if self._obs_on:
            self.obs.request_outcome(now, page_id, server_id, KINDS[code], latency)
        return code

    def _settle_unserved(
        self, server_id: int, page_id: int, now: float, resolution: Optional[Tuple[float, bool]]
    ) -> int:
        """A request no policy saw (proxy crashed, queue full, or
        nothing obtainable): a degraded off-proxy miss, or failed."""
        if resolution is None:
            self._latency.append(0.0)
            if self._obs_on:
                self.obs.failed(now, page_id, server_id)
            return FAILED
        latency = HIT_LATENCY + resolution[0]
        self._latency.append(latency)
        if self._obs_on:
            self.obs.request_outcome(now, page_id, server_id, "miss", latency)
        return DEGRADED | UNSERVED

    # -- off-proxy resolution --------------------------------------------------

    def _origin_resolution(
        self,
        proxy: ProxyServer,
        server_id: int,
        page_id: int,
        version: int,
        size: int,
        now: float,
    ) -> Optional[Tuple[float, bool]]:
        """Fetch from the origin, retrying across an outage if needed.

        Returns ``(latency beyond HIT_LATENCY, degraded?)``, or ``None``
        when the content could not be obtained — the contract of
        ``self._off_proxy``, whose other implementation
        (:meth:`repro.system.cooperation.Peers.fetch`) ends here.
        """
        ok, waited = self._origin_wait(now, server_id, page_id)
        if not ok:
            return None
        self.publisher.record_fetch(page_id, now)
        if self._obs_on:
            self.obs.fetch(now, page_id, server_id)
        fetch_latency, degraded = self._degrade_transfer(
            PER_HOP_LATENCY * proxy.policy.cost, server_id, now
        )
        return waited + fetch_latency, degraded or waited > 0.0

    def _origin_wait(
        self, now: float, server_id: int, page_id: int
    ) -> Tuple[bool, float]:
        """Backoff until the origin answers: (reachable?, seconds waited).

        The first attempt happens at ``now``; each retry doubles the
        backoff up to :data:`RETRY_CAP`, at most :data:`RETRY_LIMIT` retries
        (:func:`~repro.system.delivery.retry_instants`).  Whether a
        retry succeeds is a pure schedule lookup — the outage windows
        are materialised up front.

        With the overload layer armed the origin must also *admit* the
        fetch (token bucket + circuit breaker), each extra attempt must
        fit the global retry budget, and backoff steps carry the seeded
        jitter — so synchronized retries cannot re-overload a
        recovering origin.
        """
        schedule = self.fault_schedule
        overload = self._overload
        down = schedule is not None and schedule.publisher_down(now)
        if not down and (overload is None or overload.origin_admit(now)):
            return True, 0.0
        from repro.system.delivery import retry_instants

        obs_on = self._obs_on
        waited = 0.0
        attempt = 0
        for attempt, at, backoff in retry_instants(
            now, RETRY_LIMIT, RETRY_BASE, RETRY_CAP, overload
        ):
            waited += backoff
            if obs_on:
                self.obs.retry(now, page_id, server_id, attempt, backoff)
            if (schedule is None or not schedule.publisher_down(at)) and (
                overload is None or overload.origin_admit(at)
            ):
                return True, waited
        if obs_on and attempt < RETRY_LIMIT:
            # The walk stopped short: the retry budget refused the next one.
            self.obs.retry_denied(now, page_id, server_id, attempt + 1)
        return False, waited

    def _degrade_transfer(
        self, latency: float, server_id: int, now: float
    ) -> Tuple[float, bool]:
        """Apply the proxy's link degradation (if any) to one transfer."""
        if self.fault_schedule is None:
            # Overload-only run: no degraded-link windows exist.
            return latency, False
        window = self.fault_schedule.degradation(server_id, now)
        if window is None:
            return latency, False
        degraded = False
        if window.latency_multiplier > 1.0:
            latency *= window.latency_multiplier
            degraded = True
        if window.loss_probability > 0.0:
            rng = self._streams.stream("faults.loss")
            retransmits = 0
            while (
                retransmits < _MAX_RETRANSMITS
                and float(rng.random()) < window.loss_probability
            ):
                retransmits += 1
            if retransmits:
                latency *= 1 + retransmits
                degraded = True
        return latency, degraded

    def _maybe_check_invariants(self) -> None:
        """Count one handled event (a record or a notification arrival);
        callers guard on ``_check_interval``."""
        self._events_processed += 1
        if self._events_processed % self._check_interval == 0:
            for proxy in self.proxies:
                proxy.check_invariants()

    # -- main entry ----------------------------------------------------------

    def _replay(self, env: Environment) -> bytearray:
        """Drain :meth:`_records` through the one loop, calling the
        policies directly (announced to an observer, if any) or — with a
        layer armed — the calls :meth:`_compose` builds, held only by
        these locals so no reference cycle runs through the instance.
        Returns each request's outcome code, for :meth:`_count_requests`;
        across processes, the shards' codes (:mod:`repro.system.sharding`)."""
        layers = {
            "chaos": self._recovery,
            "delivery": self._delivery,
            "churn": self._lifecycle,
            "overload": self._overload,
            "peers": self._peers,
        }
        armed = [name for name, layer in layers.items() if layer is not None]
        if armed:
            logger.debug("replay: wrappers (%s)", ", ".join(armed))
        else:
            logger.debug("replay: plain")
        if self._processes > 1:
            from repro.system.sharding import replay_sharded

            return replay_sharded(self, self._processes)
        stream = self._records(env)
        if self._obs_on:
            stream = self._observed_stream(stream)
        if armed:
            self._latency = array("d")
            on_publish, on_request = self._compose(env)
        elif self._obs_on:
            on_publish, on_request = zip(*(
                _observed(proxy.policy, self.obs, proxy.server_id) for proxy in self.proxies
            ))
        else:
            on_publish = [proxy.policy.on_publish for proxy in self.proxies]
            on_request = [proxy.policy.on_request for proxy in self.proxies]
        return self._loop(stream, on_publish, on_request, settled=bool(armed))

    def _records(self, env: Environment):
        """The replay stream, merged with the agenda
        (:func:`~repro.sim.engine.agenda_stream`) when chaos, delivery or
        churn — the layers that reach it — is armed."""
        stream = self.workload.replay_stream(self.match_table)
        lifecycle = self._lifecycle
        if self._recovery is None and lifecycle is None:
            return stream
        on_row = lifecycle.on_event if lifecycle is not None else None
        monitor = self.obs.monitor if self._obs_on else None
        if on_row is not None and monitor is not None:
            # A lifecycle row is a record too: the monitor counts it.
            on_event, tick = on_row, monitor.tick

            def on_row(server_id, page_id, kind, lease, now):
                on_event(server_id, page_id, kind, lease, now)
                tick(now)

        return agenda_stream(env, stream, on_row)

    def _compose(self, env: Environment):
        """Per proxy, the ``(on_publish, on_request)`` the loop calls:
        the settling tail inside the armed layers' wrappers, outermost
        first churn, chaos, overload, delivery.  A request wrapper takes
        ``held`` too, probed once per request before the outermost.
        """
        factories = []
        if self._lifecycle is not None:
            from repro.system.lifecycle import lease_wrappers

            factories.append(lease_wrappers)
        if self._recovery is not None:
            from repro.faults.gates import fault_wrappers

            factories.append(fault_wrappers)
        if self._overload is not None:
            from repro.system.overload import admission_wrappers

            factories.append(admission_wrappers)
        if self._delivery is not None:
            from repro.system.delivery import delivery_wrappers

            factories.append(delivery_wrappers)
        layers = [factory(self, env) for factory in reversed(factories)]
        obs = self.obs if self._obs_on else None
        always = self.config.pushing is PushingScheme.ALWAYS
        publish_calls, request_calls = [], []
        for proxy in self.proxies:
            server_id = proxy.server_id
            offer = proxy.policy.on_publish
            if obs is not None:
                offer = _offered(offer, obs, server_id)
            calls = (
                partial(Simulation._offer_push, self, offer, always and proxy.policy.uses_push),
                partial(Simulation._serve, self, proxy, server_id),
            )
            for wrap in layers:
                calls = wrap(proxy, *calls)
            on_publish, serve = calls
            if obs is not None:
                on_publish = _announced(on_publish, obs, server_id)
            publish_calls.append(on_publish)
            request_calls.append(_probed(serve, proxy.policy.held_version))
        return publish_calls, request_calls

    def _loop(self, stream, on_publish, on_request, settled: bool) -> bytearray:
        """One iteration per publish or request record, with publisher,
        push traffic and invariant bookkeeping inlined; returns each
        request's outcome code, in request order, which is all the loop
        keeps of a request.  With ``settled`` every publish call
        accounts its own push transfer and returns
        :data:`~repro.system.proxy.SETTLED`, and no rejected push
        transfers, so the loop counts nothing for it and its body has no
        branch for the case."""
        proxies = self.proxies
        publisher = self.publisher

        # Publisher state; its validation is kept inline below.
        versions = publisher._versions
        push_pages = publisher.push_pages_by_hour
        push_bytes = publisher.push_bytes_by_hour

        # Whether a rejected push still transfers (Always-Pushing with a
        # push-capable policy).
        if self.config.pushing is PushingScheme.ALWAYS and not settled:
            transfer_rejected = [proxy.policy.uses_push for proxy in proxies]
        else:
            transfer_rejected = [False] * len(proxies)
        versions_get = versions.get
        interval = self._check_interval
        outcomes = bytearray()
        record = outcomes.append

        for now, kind, a, b, size, m in stream:
            if kind:
                # -- one request at server ``a`` for page ``b`` with
                #    match count ``m``
                version = versions_get(b)
                if version is None:
                    raise RuntimeError(
                        f"request for page {b} before its first "
                        f"publication (t={now}); the workload generator "
                        f"guarantees ordering"
                    )
                record(on_request[a](b, version, size, m, now).code)
            else:
                # -- one publish of page ``a`` version ``b`` to match
                #    pairs ``m``
                previous = versions_get(a, -1)
                if b != previous + 1:
                    raise ValueError(
                        f"out-of-order publish for page {a}: "
                        f"got version {b} after {previous}"
                    )
                versions[a] = b
                if m:
                    hour = -1
                    for server_id, match_count in m:
                        outcome = on_publish[server_id](
                            a, b, size, match_count, now
                        )
                        if outcome.stored or transfer_rejected[server_id]:
                            if hour < 0:
                                hour = int(now // 3600.0)
                            push_pages[hour] = push_pages.get(hour, 0) + 1
                            push_bytes[hour] = push_bytes.get(hour, 0) + size
            if interval:
                # One counter with the notification arrivals it schedules.
                self._maybe_check_invariants()
        return outcomes

    def _observed_stream(self, stream):
        """``stream``, each record announced and the monitor ticked."""
        obs = self.obs
        publish, request = obs.publish, obs.request
        tick = obs.monitor.tick if obs.monitor is not None else None
        for record in stream:
            now, kind, a, b, size, _m = record
            self._obs_now = now
            if kind:
                request(now, b, a)
            else:
                publish(now, a, b, size)
            if tick is not None:
                tick(now)
            yield record

    def run(self) -> SimulationResult:
        """Replay the whole trace and collect the metrics (once)."""
        if self._env is not None:  # publisher and caches hold that run's state
            raise RuntimeError("Simulation.run() already ran; build a new Simulation")
        started = time.perf_counter()
        obs = self.obs
        if self._obs_on:
            logger.debug(
                "run starts: strategy=%s trace=%s seed=%d",
                self.config.strategy,
                self.workload.label or "custom",
                self.config.seed,
            )
            obs.run_start(
                strategy=self.config.strategy,
                trace=self.workload.label or "custom",
                seed=self.config.seed,
            )
            self._attach_observer()
        env = Environment()
        self._env = env
        if self._obs_on and obs.monitor is not None:
            obs.monitor.configure(
                horizon=self.workload.config.horizon,
                cache_probe=lambda: sum(
                    proxy.policy.used_bytes for proxy in self.proxies
                ),
            )
        if self.fault_schedule is not None:
            from repro.faults.injector import FaultInjector

            FaultInjector(self.fault_schedule).install(env, self)
        outcomes = self._replay(env)
        if self._obs_on:
            # Without a layer that reaches the agenda its clock never
            # moves; the last record's time is the handler time stamped.
            obs.run_end(
                max(env.now, self._obs_now),
                cache_used_bytes=sum(
                    proxy.policy.used_bytes for proxy in self.proxies
                ),
            )
        return self._collect(started, outcomes)

    def _attach_observer(self) -> None:
        """Install per-proxy eviction/storage hooks.

        Called once per observed run; unobserved runs never reach this,
        so policies and storages keep their no-op class-level hooks.
        """
        obs = self.obs

        def handler_time() -> float:
            return self._obs_now

        for proxy in self.proxies:
            proxy.observe(obs, handler_time)

    def _count_requests(self, outcomes: bytearray) -> List[Dict[int, int]]:
        """Count every request from its outcome code, which follows the
        workload's request rows one for one: each proxy's request
        counters, hourly buckets and ``response_time``, and, in a plain
        run, where every miss is an origin fetch, the publisher's hourly
        fetch pages and bytes (a composed run books those where the
        origin serves them: a peer may serve a miss, and an unserved
        request may reach the origin).  Returns ``{hour: count}`` of
        every request, of hits, and of failed and degraded requests.

        A request's latency is what a composed run recorded for it
        (``_latency``), or in a plain run a function of its proxy and
        code.  The rows are read :data:`COUNT_ROWS` at a time, so a
        spool stays chunk-bounded, and counted into preallocated integer
        arrays; the dicts are built once at the end, keys ascending.
        ``np.add.at`` adds in index order, unbuffered, so each proxy's
        ``response_time`` is the left-to-right sum of its requests'
        latencies (``np.sum`` or ``bincount`` weights would sum pairwise
        or reorder, and not be bit-identical).
        """
        requests = self.workload.requests
        if len(outcomes) != len(requests):
            raise RuntimeError(
                f"replay recorded {len(outcomes)} request outcomes for "
                f"{len(requests)} request rows"
            )
        proxies = self.proxies
        count = len(proxies)
        codes = np.frombuffer(outcomes, dtype=np.uint8)
        recorded = self._latency
        if recorded is None:
            # Latency by (proxy, code): a miss and a stale copy both fetch.
            latency = np.array([
                (HIT_LATENCY + miss, HIT_LATENCY, HIT_LATENCY + miss)
                for miss in (PER_HOP_LATENCY * proxy.policy.cost for proxy in proxies)
            ]).reshape(count, 3)
        else:
            recorded = np.frombuffer(recorded)
        page_sizes = self.publisher._sizes
        sizes = np.zeros(max(page_sizes, default=-1) + 1, dtype=np.int64)
        sizes[list(page_sizes)] = list(page_sizes.values())
        # Rows are time-sorted (``Workload.check_ids``), so the last one
        # names the last hour; no horizon is assumed (a row past it
        # counts too).
        width = int(requests.rows["time"][-1] // 3600.0) + 1 if len(requests) else 0
        # Requests a policy served per (hour, proxy, code); every request
        # per (hour, code with its DEGRADED flag); served bytes per
        # (proxy, code) and per (hour, code).
        tally = np.zeros((width, count, 3), dtype=np.int64)
        flagged = np.zeros((width, 2 * DEGRADED), dtype=np.int64)
        volume = np.zeros((count, 3), dtype=np.int64)
        hourly_volume = np.zeros((width, 3), dtype=np.int64)
        response = np.zeros(count)
        done = 0
        for chunk in requests.chunks():
            for start in range(0, len(chunk), COUNT_ROWS):
                window = chunk[start : start + COUNT_ROWS]
                rows = slice(done, done + len(window))
                done += len(window)
                times = window["time"]
                code = codes[rows]
                servers = window["server_id"].astype(np.intp)
                pages = window["page_id"]
                # int(t // 3600.0) at a fifth of the cost: the one way a
                # rounded quotient can err is up onto an hour not reached.
                hours = (times / 3600.0).astype(np.intp)
                hours -= hours * 3600.0 > times
                first = hours[0]
                span = hours[-1] + 1 - first
                hours -= first
                here = slice(first, first + span)
                if recorded is None:
                    np.add.at(response, servers, latency[servers, code])
                else:
                    np.add.at(response, servers, recorded[rows])
                    flagged[here] += _binned(hours * 2 * DEGRADED + code, (span, 2 * DEGRADED))
                    code = code % DEGRADED
                    served = code < UNSERVED
                    hours, servers = hours[served], servers[served]
                    code, pages = code[served], pages[served]
                tally[here] += _binned((hours * count + servers) * 3 + code, (span, count, 3))
                weights = sizes[pages]
                volume += _binned(servers * 3 + code, (count, 3), weights)
                hourly_volume[here] += _binned(hours * 3 + code, (span, 3), weights)
        served = tally.sum(axis=2).T
        hits = tally[:, :, HIT].T
        stale = tally[:, :, STALE].sum(axis=0)
        for proxy, requests_by_hour, hits_by_hour, requested, hit_count, \
                stale_count, local_bytes, fetched_bytes, seconds in zip(
            proxies, _by_hour(served), _by_hour(hits), served.sum(axis=1).tolist(),
            hits.sum(axis=1).tolist(), stale.tolist(), volume[:, HIT].tolist(),
            (volume.sum(axis=1) - volume[:, HIT]).tolist(), response.tolist(),
        ):
            stats = proxy.stats
            stats.requests += requested
            stats.hits += hit_count
            stats.stale_hits += stale_count
            stats.bytes_served_local += local_bytes
            stats.pages_fetched += requested - hit_count
            stats.bytes_fetched += fetched_bytes
            stats.response_time += seconds
            stats.bucketed_requests = requests_by_hour
            stats.bucketed_hits = hits_by_hour
        if recorded is None:
            pages = (served - hits).sum(axis=0)
            hours = np.flatnonzero(pages).tolist()
            fetched = hourly_volume.sum(axis=1) - hourly_volume[:, HIT]
            self.publisher.fetch_pages_by_hour = dict(zip(hours, pages[hours].tolist()))
            self.publisher.fetch_bytes_by_hour = dict(zip(hours, fetched[hours].tolist()))
        unflagged = flagged[:, :DEGRADED] + flagged[:, DEGRADED:]
        return _by_hour(np.stack([
            served.sum(axis=0) + unflagged[:, UNSERVED:].sum(axis=1),
            hits.sum(axis=0),
            unflagged[:, FAILED],
            flagged[:, DEGRADED:].sum(axis=1),
        ]))

    def _collect(self, started: float, outcomes: bytearray) -> SimulationResult:
        requests_by_hour, hits_by_hour, failed_by_hour, degraded_by_hour = (
            self._count_requests(outcomes)
        )
        wall_seconds = time.perf_counter() - started
        # Hours at or beyond the horizon boundary (events stamped at
        # exactly ``hour_count`` hours) clamp into the final bucket so
        # no event is dropped; see ``metrics.dense_clamped``.
        hour_count = int(self.workload.config.horizon // 3600.0) + 1

        result = SimulationResult(
            strategy=self.config.strategy,
            trace_label=self.workload.label or "custom",
            capacity_fraction=self.config.capacity_fraction,
            subscription_quality=self.config.subscription_quality,
            pushing_scheme=self.config.pushing.value,
            requests=sum(requests_by_hour.values()),
            hits=sum(hits_by_hour.values()),
            stale_hits=sum(proxy.stats.stale_hits for proxy in self.proxies),
            push_transfers=self.publisher.total_push_pages,
            push_bytes=self.publisher.total_push_bytes,
            fetch_pages=self.publisher.total_fetch_pages,
            fetch_bytes=self.publisher.total_fetch_bytes,
            hour_count=hour_count,
            hourly_requests=dense_counts(requests_by_hour, hour_count),
            hourly_hits=dense_counts(hits_by_hour, hour_count),
            hourly_push_pages=dense_counts(self.publisher.push_pages_by_hour, hour_count),
            hourly_fetch_pages=dense_counts(self.publisher.fetch_pages_by_hour, hour_count),
            hourly_push_bytes=dense_counts(self.publisher.push_bytes_by_hour, hour_count),
            hourly_fetch_bytes=dense_counts(self.publisher.fetch_bytes_by_hour, hour_count),
            per_proxy=[proxy.stats for proxy in self.proxies],
            wall_seconds=wall_seconds,
            # Summed over proxies in server order (float addition is
            # order-sensitive).
            total_response_time=sum(
                proxy.stats.response_time for proxy in self.proxies
            ),
        )
        if self._recovery is not None or self._overload is not None:
            # Both layers route refused/unservable requests through the
            # shared failed/degraded books.
            result.failed_requests = sum(failed_by_hour.values())
            result.degraded_requests = sum(degraded_by_hour.values())
            result.hourly_failed = dense_counts(failed_by_hour, hour_count)
            result.hourly_degraded = dense_counts(degraded_by_hour, hour_count)
        # Each layer writes the block it counted.
        horizon = self.workload.config.horizon
        if self._recovery is not None:
            self._recovery.collect(result, self.proxies, self.publisher)
        if self._delivery is not None:
            self._delivery.collect(result)
        if self._overload is not None:
            self._overload.collect(result, horizon)
        if self._lifecycle is not None:
            self._lifecycle.collect(result, horizon)
        if self._peers is not None:
            self._peers.collect(result)
        if self._obs_on:
            logger.debug("run done: %s", result.summary())
        return result


def _binned(keys: np.ndarray, shape: Tuple[int, ...], weights=None) -> np.ndarray:
    """``np.bincount`` of flat ``keys`` as an int64 array of ``shape``;
    exact while a weight sum stays below 2**53 (one window's sizes)."""
    return np.bincount(keys, weights, math.prod(shape)).astype(np.int64, copy=False).reshape(shape)


def _by_hour(counts: np.ndarray) -> List[Dict[int, int]]:
    """Per row of ``counts`` (rows x hours), ``{hour: count}`` of its
    nonzero cells, hours ascending."""
    rows, hours = np.nonzero(counts)  # row-major: by row, then by hour
    values = counts[rows, hours].tolist()
    hours = hours.tolist()
    cuts = np.searchsorted(rows, np.arange(len(counts) + 1)).tolist()
    return [dict(zip(hours[start:stop], values[start:stop])) for start, stop in zip(cuts, cuts[1:])]


def run_simulation(workload: Workload, config: SimulationConfig) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    return Simulation(workload, config).run()

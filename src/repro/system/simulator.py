"""The top-level simulation: workload replay over the DES engine.

:class:`Simulation` wires together the workload trace, the subscription
table (eq. 7), the topology-derived fetch costs, one policy instance
per proxy and the publisher, then replays the lifecycle, publish and
request streams as one merged static stream (``Simulation._replay``),
with :class:`repro.sim.Environment` holding only the dynamic events —
fault transitions and delayed notification copies.  At equal times a
publish precedes a request, so a page exists before it is read.

Traffic accounting (§5.6) happens here, not in the policies:

* under **Always-Pushing** every matched publication transfers the page
  to the proxy, stored or not;
* under **Pushing-When-Necessary** only accepted placements transfer
  content (the meta-information handshake is control traffic, ignored
  in the page/byte counts as in the paper);
* every cache miss transfers the page from the publisher once.

With a :class:`~repro.faults.spec.ChaosSpec` configured, the run also
carries a fault schedule whose crash/outage windows are injected as agenda
callbacks, and the system degrades gracefully instead of assuming
success:

* a crashed proxy loses its cache (cold restart) and rejects pushes;
  its users' requests fail over **directly to the origin** at origin
  cost;
* origin fetches during a publisher outage retry with capped
  exponential backoff; exhausted retries are counted as **failed**
  requests (nothing is placed in the cache — the bytes never arrived);
* degraded links multiply fetch latency and may lose transfers, each
  loss costing one extra round trip.

With *delivery* faults configured as well, the push path itself stops
being reliable: notifications can be lost, duplicated, delayed out of
order, or routed through a crashed broker shard.  The publisher then
runs the reliable-delivery protocol of :mod:`repro.system.delivery`
(sequence numbers, ack-timeout retransmission with capped exponential
backoff, a bounded retransmit queue), proxies suppress duplicates and
detect gaps with a :class:`~repro.pubsub.routing.SequenceTracker`, and
the request path performs lazy **staleness repair**: a cache hit whose
copy the proxy wrongly believes current is caught by an access-time
sequence validation and healed with an origin fetch, counted as repair
traffic rather than a miss.  With repair disabled the proxy silently
serves the stale copy — the measurable no-protocol baseline.

Requests the policies never see (failover and failures) are tallied
separately and merged into the request totals at collection time, so
hit ratio, availability and the hourly series all share one
denominator.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.registry import make_policy_lenient
from repro.faults import LIFECYCLE_STREAM
from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.network.topology import Topology, build_topology
from repro.obs.log import get_logger
from repro.obs.recorder import NULL_OBSERVER, Observer
from repro.pubsub.matching import TraceMatchCounts
from repro.sim.engine import Environment, NORMAL, URGENT
from repro.sim.rng import RandomStreams
from repro.system.config import (
    HIT_LATENCY,
    PER_HOP_LATENCY,
    PushingScheme,
    SimulationConfig,
)
from repro.system.metrics import SimulationResult, dense_counts
from repro.system.proxy import ProxyServer
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

#: Agenda priority of each static record kind (publish, request,
#: lifecycle): what a dynamic event at the same instant is compared to.
_PRIORITY = (URGENT, NORMAL, URGENT)

#: One stage of the request or publish path, called as ``stage(sim,
#: proxy, server_id, page_id, version, size, match_count, now)``; true
#: when it settled the request (or push) and the path stops there.  A
#: request stage takes one more argument, ``held``: the version the
#: requesting proxy caches (``None``: not cached), probed once by
#: ``_handle_request``.  Every ``Simulation`` method documented as a
#: stage has one of the two signatures.
Stage = Callable[..., bool]


def _outcome_kind(outcome) -> str:
    """Trace-event kind for a RequestOutcome: hit, stale or miss."""
    if outcome.hit:
        return "hit"
    if outcome.stale:
        return "stale"
    return "miss"


def cell_inputs(
    workload: Workload,
    config: SimulationConfig,
    streams: RandomStreams,
    match_table: Optional[TraceMatchCounts] = None,
    topology: Optional[Topology] = None,
) -> Tuple[TraceMatchCounts, Topology]:
    """The match table and topology of one cell: what the caller handed
    in, else derived from the cell's own ``subscriptions`` / ``topology``
    streams (independent per name, so order does not matter)."""
    if match_table is None:
        match_table = TraceMatchCounts(
            build_match_counts(
                workload.pair_counts(),
                config.subscription_quality,
                streams.stream("subscriptions"),
                notified_fraction=config.notified_fraction,
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
    proxies).  An armed layer is one object here and its stages in the
    request and publish paths, assembled once; a disarmed one is absent.
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
    ) -> None:
        if neighbor_count < 0 or neighbor_count % 1:  # nan and inf included
            raise ValueError(
                f"neighbor_count must be an integer >= 0, got {neighbor_count}"
            )
        # Every table below is sized by the workload's pages and proxies
        # and indexed by the ids its events carry.
        workload.check_ids()
        self.workload = workload
        self.config = config
        # Observability is strictly read-only: hooks read state, never
        # change it or touch RNG streams, and an observed run replays on
        # the arm an unobserved one takes, so its SimulationResult
        # (minus wall_seconds) stays bit-identical to an unobserved one.
        self.obs = observer if observer is not None else NULL_OBSERVER
        self._obs_on = self.obs.enabled
        #: Sim time of the handler currently running, for hooks (like
        #: the eviction listener) that fire below the handler layer.
        self._obs_now = 0.0
        streams = RandomStreams(config.seed)
        self._streams = streams

        match_table, topology = cell_inputs(
            workload, config, streams, match_table, topology
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
        #: The invariant cadence (0: off), read once: the handlers skip the
        #: call to ``_maybe_check_invariants`` when there is nothing to check.
        self._check_interval = config.invariant_check_interval
        self._env: Optional[Environment] = None

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
        # Failed/degraded books, shared by the fault and overload layers.
        self._failed_by_hour: Dict[int, int] = {}
        self._degraded_by_hour: Dict[int, int] = {}
        #: Requests that never reached a policy (down-proxy failover and
        #: failures) — merged into the request totals at collection.
        self._unserved_by_hour: Dict[int, int] = {}

        # -- overload/backpressure layer -------------------------------------
        # Engaged only when an OverloadSpec arms at least one part; a
        # missing or all-default spec allocates nothing here and never
        # derives the "faults.overload" stream, so the publish/request
        # paths behave — and draw — exactly as before (bit identity).
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

        # -- reliable-delivery layer ---------------------------------------
        # Engaged only when the push path itself can fail; with every
        # delivery knob at its default this block allocates nothing and
        # the publish path below takes exactly the synchronous route,
        # preserving bit-identity (the "faults.delivery" stream is
        # never even derived).
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

        # -- subscription-lifecycle layer -----------------------------------
        # Engaged only when the workload carries lifecycle events; a
        # churn-free trace allocates nothing here and never derives the
        # lifecycle stream, so the publish/request paths below behave —
        # and draw — exactly as before (bit identity).
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

        # -- the request and publish paths, assembled once ---------------------
        # Plain functions called as ``stage(self, ...)``: bound methods
        # here would tie the instance into a reference cycle and leave a
        # finished run to the cyclic collector (docs/architecture.md,
        # "One request path", trap a).
        request: List[Stage] = []
        publish: List[Stage] = []
        dark: Optional[Tuple[Stage, ...]] = None
        if self._lifecycle is not None:
            request.append(Simulation._lifecycle_access)
            publish.append(Simulation._lease_gate)
        if self._recovery is not None:
            request.append(Simulation._proxy_down_failover)
            dark = (*publish, Simulation._origin_down_gate)
            if self._delivery is None:
                # With the protocol engaged a down *proxy* is its
                # problem: sends fail while it is down and a
                # retransmission may land after recovery.
                publish.append(Simulation._proxy_down_gate)
        if self._overload is not None:
            request.append(Simulation._pull_admission)
        if self._delivery is not None:
            request.append(Simulation._silently_stale)
            publish.append(Simulation._send_notification)
        else:
            if self._overload is not None:
                publish.append(Simulation._push_admission)
            publish.append(Simulation._offer_push)
        request.append(Simulation._serve)
        #: Tried in order until one settles the request; the last always does.
        self._request_stages = tuple(request)
        #: Tried in order, per matched proxy, until one settles the push.
        self._publish_stages = tuple(publish)
        #: The publish path while the origin is down (fault layer only).
        self._dark_publish_stages = dark

    # -- fault hooks (called by the FaultInjector) --------------------------

    def on_proxy_crash(self, server_id: int, now: float) -> None:
        proxy = self.proxies[server_id]
        self._recovery.on_crash(server_id, now, proxy.stats.hit_ratio)
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

    # -- event handlers ---------------------------------------------------

    def _handle_publish(
        self, page_id: int, version: int, size: int, pairs: tuple, now: float
    ) -> None:
        """A publish record: offer the page to each matched ``(server_id,
        match_count)`` pair through the publish stages."""
        obs_on = self._obs_on
        self.publisher.publish(page_id, version, now)
        if obs_on:
            self._obs_now = now
            self.obs.publish(now, page_id, version, size)
        stages = self._publish_stages
        dark = self._dark_publish_stages
        if dark is not None and self.fault_schedule.publisher_down(now):
            stages = dark
        proxies = self.proxies
        for server_id, match_count in pairs:
            if obs_on:
                self.obs.match(now, page_id, server_id, match_count)
            proxy = proxies[server_id]
            for stage in stages:
                if stage(self, proxy, server_id, page_id, version, size, match_count, now):
                    break
        if self._check_interval:
            self._maybe_check_invariants()

    def _handle_request(
        self, server_id: int, page_id: int, size: int, match_count: int, now: float
    ) -> None:
        """A request record: walk the request stages until one settles it."""
        version = self.publisher.current_version(page_id)
        if version is None:
            raise RuntimeError(
                f"request for page {page_id} before its first publication "
                f"(t={now}); the workload generator guarantees ordering"
            )
        proxy = self.proxies[server_id]
        # The one probe of the requesting proxy's cache: no stage
        # changes it before the policy call that ends the path.
        held = proxy.policy.held_version(page_id)
        if self._obs_on:
            self._obs_now = now
            self.obs.request(now, page_id, server_id)
        for stage in self._request_stages:
            if stage(
                self, proxy, server_id, page_id, version, size, match_count, now, held
            ):
                break
        if self._check_interval:
            self._maybe_check_invariants()

    # -- publish stages (see ``Stage``) ---------------------------------------

    def _lease_gate(
        self, proxy, server_id, page_id, version, size, match_count, now
    ) -> bool:
        """Churn: a cell without a confirmed lease is not notified.

        The proxy keeps serving its cache and repairs state on the next
        access (:meth:`_lifecycle_access`).
        """
        return not self._lifecycle.deliverable(server_id, page_id, now)[0]

    def _origin_down_gate(
        self, proxy, server_id, page_id, version, size, match_count, now
    ) -> bool:
        """Faults: the origin cannot send.  The page stays authoritative
        there and is fetched on demand later."""
        self._recovery.pushes_suppressed += 1
        if self._obs_on:
            self.obs.push_suppressed(now, page_id, server_id, "origin-down")
        return True

    def _proxy_down_gate(
        self, proxy, server_id, page_id, version, size, match_count, now
    ) -> bool:
        """Faults without the delivery protocol: a down proxy cannot receive."""
        if proxy.up:
            return False
        self._recovery.pushes_suppressed += 1
        if self._obs_on:
            self.obs.push_suppressed(now, page_id, server_id, "proxy-down")
        return True

    def _push_admission(
        self, proxy, server_id, page_id, version, size, match_count, now
    ) -> bool:
        """Overload: a saturated service queue sheds the push.

        Pushes yield queue room to pulls first.  The cache keeps its
        old copy and the proxy never learns this version arrived, so
        the next request takes the ordinary stale-miss path (or, under
        the delivery protocol, lazy staleness repair): no extra repair
        machinery is needed here.
        """
        if self._overload.admit(server_id, now, True):
            return False
        if self._obs_on:
            self.obs.overload_shed(now, page_id, server_id, "push")
        return True

    def _offer_push(
        self, proxy, server_id, page_id, version, size, match_count, now
    ) -> bool:
        """Push-time placement: offer the page, account the transfer."""
        obs_on = self._obs_on
        if obs_on:
            self.obs.push_offer(now, page_id, server_id)
        outcome = proxy.handle_publish(page_id, version, size, match_count, now)
        if obs_on:
            if outcome.stored:
                self.obs.push_accept(now, page_id, server_id, outcome.refreshed)
            else:
                self.obs.push_reject(now, page_id, server_id)
        if outcome.stored or (
            self.config.pushing is PushingScheme.ALWAYS and proxy.policy.uses_push
        ):
            self.publisher.record_push_transfer(page_id, now)
        return True

    # -- reliable delivery ---------------------------------------------------

    def _send_notification(
        self, proxy, server_id, page_id, version, size, match_count, now
    ) -> bool:
        """Delivery: push one notification through the unreliable layer.

        The retransmission protocol is resolved analytically against
        the fault schedule (:meth:`ReliableDelivery.plan`); surviving
        copies are scheduled as DES arrival events at the planned time.
        """
        plan = self._delivery.send(server_id, page_id, now)
        if not plan.delivered:
            return True
        for at in (plan.arrival_time, plan.duplicate_time):
            if at is None:
                continue
            if at <= now:
                # Undelayed delivery happens inside the publish handler,
                # exactly like the reliable (healthy) push path.
                self._deliver_notification(
                    server_id, page_id, version, size, match_count, now
                )
            else:
                self._env.schedule(
                    at,
                    lambda _env, s=server_id, p=page_id, v=version, z=size, m=match_count: (
                        self._deliver_notification(s, p, v, z, m, _env.now)
                    ),
                    priority=URGENT,
                )
        return True

    def _deliver_notification(
        self,
        server_id: int,
        page_id: int,
        version: int,
        size: int,
        match_count: int,
        t: float,
    ) -> None:
        """One notification copy reaches the proxy at time ``t``."""
        if self._obs_on:
            self._obs_now = t
        proxy = self.proxies[server_id]
        if not proxy.up:
            self._delivery.lose_at_down_proxy(server_id, page_id, t)
            return
        if self._overload is not None and self._push_admission(
            proxy, server_id, page_id, version, size, match_count, t
        ):
            return  # shed before the sequence tracker sees the copy
        if self._delivery.receive(server_id, page_id, version, t):
            self._offer_push(proxy, server_id, page_id, version, size, match_count, t)
            if self._check_interval:
                self._maybe_check_invariants()

    # -- request stages (see ``Stage``) ---------------------------------------

    def _lifecycle_access(
        self, proxy, server_id, page_id, version, size, match_count, now, held
    ) -> bool:
        """Churn: the access heals lapsed subscription state (re-poll).

        Runs *before* the request is served (and before the silently-
        stale stage), so a subscriber whose lease silently expired never
        permanently loses notifications: the re-poll restores a
        confirmed lease and — with the delivery protocol engaged —
        teaches the proxy's sequence tracker the current version, which
        routes a lagging cached copy through the ordinary stale-miss
        path instead of the silently-stale one.  Never settles.
        """
        if self._lifecycle.on_access(server_id, page_id, now) is None:
            return False
        if held is not None and held < version:
            # The missed notifications had real cost: the proxy's copy
            # is behind the origin at repair time.
            self._lifecycle.stale_serves += 1
        if self._delivery is not None:
            self._delivery.trackers[server_id].learn(page_id, version)
        return False

    def _proxy_down_failover(
        self, proxy, server_id, page_id, version, size, match_count, now, held
    ) -> bool:
        """Faults: an offline proxy's cache cannot answer; the client
        fails over directly to the origin at origin cost."""
        if proxy.up:
            return False
        if self._obs_on:
            self.obs.failover(
                now, server_id, page_id, target="origin", reason="proxy-down"
            )
        self._settle_unserved(
            proxy, server_id, page_id, now,
            self._origin_resolution(proxy, server_id, page_id, version, size, now),
        )
        return True

    def _pull_admission(
        self, proxy, server_id, page_id, version, size, match_count, now, held
    ) -> bool:
        """Overload: the service queue may refuse the pull.

        A refused pull never reaches the policy (tallied as unserved,
        keeping the shared denominator) and retries off-proxy exactly
        like a miss — peer chain first in a cooperative run, then the
        origin through its admission gate.
        """
        if self._overload.admit(server_id, now, False):
            return False
        if self._obs_on:
            self.obs.overload_reject(now, page_id, server_id)
            self.obs.failover(
                now, server_id, page_id, target="origin", reason="overload"
            )
        self._settle_unserved(
            proxy, server_id, page_id, now,
            self._off_proxy(self, proxy, server_id, page_id, version, size, now),
        )
        return True

    def _silently_stale(
        self, proxy, server_id, page_id, version, size, match_count, now, held
    ) -> bool:
        """Delivery: a request whose proxy *believes* its copy is current.

        Settles the request when the cached copy is stale but the proxy
        never learned of the newer version (the notification was lost).
        With staleness repair enabled the access-time validation catches
        the miss and heals it with an origin fetch (repair traffic);
        without it the proxy serves the stale copy as a perfectly
        ordinary hit — silently wrong.

        Passes the request on when the oracle view and the proxy's view
        agree (fresh copy, known-stale copy, or page not cached).
        """
        cached = self._delivery.believed_current(server_id, held, page_id, version)
        if cached is None:
            return False
        recovery = self._recovery
        age = self.publisher.staleness_age(page_id, cached, now)
        waited = 0.0
        if self.chaos.delivery_repair:
            # Validation detected the missed push; repair from the origin.
            recovery.staleness_validations += 1
            ok, waited = self._origin_wait(now, server_id, page_id)
            if ok:
                self.publisher.record_repair(page_id, now)
                if self._obs_on:
                    self.obs.repair(now, page_id, server_id, age)
                recovery.sample_staleness_age(age)
                fetch_latency, degraded = self._degrade_transfer(
                    PER_HOP_LATENCY * proxy.policy.cost, server_id, now
                )
                self._settle_miss(
                    proxy, server_id, page_id, version, size, match_count, now,
                    HIT_LATENCY + waited + fetch_latency,
                    degraded or waited > 0.0,
                )
                return True
            # Origin unreachable and retries exhausted: degrade to
            # serving the stale copy rather than failing the request.
            self._note_degraded(now)
        # The oracle's books: one silently stale response, with its age
        # (the no-protocol baseline serves every such copy this way).
        recovery.on_stale_served(now, age)
        if self._obs_on:
            self.obs.stale_served(now, page_id, server_id, age)
        self._serve_cached(
            proxy, server_id, page_id, cached, size, match_count, now, waited
        )
        return True

    def _serve(
        self, proxy, server_id, page_id, version, size, match_count, now, held
    ) -> bool:
        """The last stage: answer from the cache or fetch off-proxy.

        ``held`` mirrors ``on_request`` hit detection — every policy
        reports a hit exactly when the current version is resident — so
        a miss can be resolved (and can fail, placing nothing) *before*
        the policy sees the request.  With no layer armed this stage is
        the whole path: policy call, origin fetch on a miss.
        """
        if held == version:
            if self._delivery is not None and self.chaos.delivery_repair:
                # Access-time validation ran and confirmed freshness.
                self._recovery.staleness_validations += 1
            self._serve_cached(
                proxy, server_id, page_id, version, size, match_count, now, 0.0
            )
            return True
        resolution = self._off_proxy(self, proxy, server_id, page_id, version, size, now)
        if resolution is not None:
            self._settle_miss(
                proxy, server_id, page_id, version, size, match_count, now,
                HIT_LATENCY + resolution[0], resolution[1],
            )
            return True
        overload = self._overload
        if overload is not None and overload.bucket is not None and held is not None:
            # Origin admission refused the fetch (breaker open or
            # bucket drained): degraded mode serves whatever version
            # is cached rather than failing the request.
            overload.stale_serves += 1
            self._note_degraded(now)
            if self._obs_on:
                self.obs.overload_stale(now, page_id, server_id)
            self._serve_cached(
                proxy, server_id, page_id, held, size, match_count, now, 0.0
            )
            return True
        # Retries exhausted: the request fails; nothing was placed
        # (the bytes never arrived at the proxy).
        self._settle_unserved(proxy, server_id, page_id, now, None)
        return True

    # -- request tails ---------------------------------------------------------

    def _serve_cached(
        self,
        proxy: ProxyServer,
        server_id: int,
        page_id: int,
        cached_version: int,
        size: int,
        match_count: int,
        now: float,
        waited: float,
    ) -> None:
        """Answer from the cache: the hit tail.

        The policy is asked for the version it *holds*, so it records a
        plain hit — also for a silently stale or overload-stale copy,
        where from the proxy's point of view nothing is wrong; those
        callers keep the oracle's books themselves.
        """
        proxy.handle_request(page_id, cached_version, size, match_count, now)
        if self._recovery is not None:
            self._recovery.on_request(server_id, hit=True, now=now)
        latency = HIT_LATENCY + waited
        proxy.stats.response_time += latency
        if self._obs_on:
            self.obs.request_outcome(now, page_id, server_id, "hit", latency)

    def _settle_miss(
        self,
        proxy: ProxyServer,
        server_id: int,
        page_id: int,
        version: int,
        size: int,
        match_count: int,
        now: float,
        latency: float,
        degraded: bool,
    ) -> None:
        """The content arrived from off-proxy: the miss tail."""
        outcome = proxy.handle_request(page_id, version, size, match_count, now)
        if self._delivery is not None:
            # The fetch taught the proxy the current version.
            self._delivery.trackers[server_id].learn(page_id, version)
        if self._recovery is not None:
            self._recovery.on_request(server_id, hit=False, now=now)
        if degraded:
            self._note_degraded(now)
        proxy.stats.response_time += latency
        if self._obs_on:
            self.obs.request_outcome(
                now, page_id, server_id, _outcome_kind(outcome), latency
            )

    def _settle_unserved(
        self,
        proxy: ProxyServer,
        server_id: int,
        page_id: int,
        now: float,
        resolution: Optional[Tuple[float, bool]],
    ) -> None:
        """Book a request no policy saw (proxy crashed, queue full, or
        nothing obtainable): a degraded off-proxy miss, or failed."""
        hour = int(now // 3600.0)
        self._unserved_by_hour[hour] = self._unserved_by_hour.get(hour, 0) + 1
        if resolution is None:
            self._failed_by_hour[hour] = self._failed_by_hour.get(hour, 0) + 1
            if self._obs_on:
                self.obs.failed(now, page_id, server_id)
            return
        self._note_degraded(now)
        latency = HIT_LATENCY + resolution[0]
        proxy.stats.response_time += latency
        if self._obs_on:
            self.obs.request_outcome(now, page_id, server_id, "miss", latency)

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

    # -- availability accounting -------------------------------------------

    def _note_degraded(self, now: float) -> None:
        hour = int(now // 3600.0)
        self._degraded_by_hour[hour] = self._degraded_by_hour.get(hour, 0) + 1

    def _maybe_check_invariants(self) -> None:
        """Count one handled event; callers guard on ``_check_interval``."""
        self._events_processed += 1
        if self._events_processed % self._check_interval == 0:
            for proxy in self.proxies:
                proxy.check_invariants()

    # -- main entry ----------------------------------------------------------

    def _replay(self, env: Environment) -> None:
        """Drain the static stream (:meth:`Workload.replay_stream
        <repro.workload.trace.Workload.replay_stream>`) against the
        dynamic agenda.

        The only replay routine.  Which of its two dispatch arms runs
        is read off the layers this run has armed, never chosen by a
        caller, and an observer is not one: with no layer object
        nothing can reach the agenda or add a stage, so the *inline*
        arm calls the policies directly, observed or not; otherwise the
        *staged* arm lets the agenda catch up before each record
        (:meth:`Environment.run_before`) and dispatches every kind with
        one call, ``handlers[kind](a, b, c, d, time)``.  Either arm
        ticks the monitor once per record.
        """
        layers = {
            "chaos": self._recovery,
            "churn": self._lifecycle,
            "overload": self._overload,
            "peers": self._peers,
        }
        armed = [name for name, layer in layers.items() if layer is not None]
        if not armed:
            logger.debug("replay: inline arm")
            self._inline_arm(self.workload.replay_stream(self.match_table))
            return
        logger.debug("replay: staged arm (%s)", ", ".join(armed))
        handlers = [self._handle_publish, self._handle_request]
        if self._lifecycle is not None:
            # A lifecycle row goes straight to its manager, observed or
            # not: it changes no cache, so the invariant cadence counts
            # publishes, requests and delayed notification arrivals — as
            # the inline arm's does.  Without a manager the stream holds
            # no kind-2 record.
            handlers.append(self._lifecycle.on_event)
        monitor = self.obs.monitor if self._obs_on else None
        run_before = env.run_before
        for at, kind, a, b, c, d in self.workload.replay_stream(self.match_table):
            run_before(at, _PRIORITY[kind])
            handlers[kind](a, b, c, d, at)
            if monitor is not None:
                monitor.tick(at)
        env.run()

    def _inline_arm(self, stream) -> None:
        """Replay the stream by calling the policies directly.

        The per-event work of ``_handle_publish``/``_handle_request`` —
        publisher bookkeeping, traffic accounting, latency accounting
        and the invariant cadence — is inlined into the loop body, and
        all per-proxy state is prefetched into lists indexed by server
        id.  Equality with the staged arm and with the agenda oracle is
        enforced by ``tests/system/test_replay_fastpath.py`` and
        ``tests/system/test_layer_matrix.py``.

        An observed run replays through the same loop over observing
        inputs (:meth:`_observed_stream`, :meth:`_observed_calls`): the
        events and their order are the staged arm's, and the unobserved
        loop body carries no observer test.
        """
        workload = self.workload
        config = self.config
        proxies = self.proxies
        publisher = self.publisher

        # Publisher state, bypassing its per-call validation helpers
        # (the checks themselves are kept inline below).
        versions = publisher._versions
        publish_times = publisher._publish_times
        push_pages = publisher.push_pages_by_hour
        push_bytes = publisher.push_bytes_by_hour
        fetch_pages = publisher.fetch_pages_by_hour
        fetch_bytes = publisher.fetch_bytes_by_hour
        publish_count = workload.publish_count
        request_count = workload.request_count

        # Per-proxy columns: bound policy entry points, whether a
        # rejected push still transfers (Always-Pushing with a
        # push-capable policy), and the miss latency beyond HIT_LATENCY.
        on_publish = [proxy.policy.on_publish for proxy in proxies]
        on_request = [proxy.policy.on_request for proxy in proxies]
        always = config.pushing is PushingScheme.ALWAYS
        transfer_rejected = [
            always and proxy.policy.uses_push for proxy in proxies
        ]
        hit_latency = HIT_LATENCY
        miss_latency = [PER_HOP_LATENCY * proxy.policy.cost for proxy in proxies]
        if self._obs_on:
            stream = self._observed_stream(stream)
            on_publish, on_request = zip(
                *map(self._observed_calls, proxies, miss_latency)
            )
        versions_get = versions.get
        interval = config.invariant_check_interval
        events = self._events_processed
        # Response time accumulates per proxy (each proxy's additions
        # happen in its own event order), so a sharded run merging
        # per-proxy values reproduces the total bit-for-bit.
        response_time = [0.0] * len(proxies)

        # One C-level iteration per trace event; the invariant cadence
        # only pays its counter when enabled.
        for now, kind, a, b, size, m in stream:
            if kind:
                # -- one request at server ``a`` for page ``b`` with
                #    match count ``m`` (see _handle_request, fault-free
                #    path)
                version = versions_get(b)
                if version is None:
                    raise RuntimeError(
                        f"request for page {b} before its first "
                        f"publication (t={now}); the workload generator "
                        f"guarantees ordering"
                    )
                outcome = on_request[a](b, version, size, m, now)
                if outcome.hit:
                    response_time[a] += hit_latency
                else:
                    hour = int(now // 3600.0)
                    fetch_pages[hour] = fetch_pages.get(hour, 0) + 1
                    fetch_bytes[hour] = fetch_bytes.get(hour, 0) + size
                    response_time[a] += hit_latency + miss_latency[a]
            else:
                # -- one publish of page ``a`` version ``b`` to match
                #    pairs ``m`` (see _handle_publish, fault-free path)
                previous = versions_get(a, -1)
                if b != previous + 1:
                    raise ValueError(
                        f"out-of-order publish for page {a}: "
                        f"got version {b} after {previous}"
                    )
                versions[a] = b
                times = publish_times.get(a)
                if times is None:
                    publish_times[a] = times = []
                times.append(now)
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
                events += 1
                if events % interval == 0:
                    for proxy in proxies:
                        proxy.check_invariants()

        self._events_processed += publish_count + request_count
        for proxy, latency in zip(proxies, response_time):
            proxy.stats.response_time += latency

    def _observed_stream(self, stream):
        """``stream`` with each record announced as the staged arm's
        handlers and loop announce it: the handler time stamped,
        ``publish`` or ``request`` emitted, the monitor ticked."""
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

    def _observed_calls(self, proxy: ProxyServer, miss_latency: float):
        """``proxy``'s ``(on_publish, on_request)`` for the inline arm of
        an observed run: the policy call, with the events
        :meth:`_offer_push` and :meth:`_serve` emit around it."""
        obs = self.obs
        server_id = proxy.server_id
        policy = proxy.policy
        offer, serve, held_version = policy.on_publish, policy.on_request, policy.held_version

        def on_publish(page_id, version, size, match_count, now):
            obs.match(now, page_id, server_id, match_count)
            obs.push_offer(now, page_id, server_id)
            outcome = offer(page_id, version, size, match_count, now)
            if outcome.stored:
                obs.push_accept(now, page_id, server_id, outcome.refreshed)
            else:
                obs.push_reject(now, page_id, server_id)
            return outcome

        def on_request(page_id, version, size, match_count, now):
            if held_version(page_id) != version:
                obs.fetch(now, page_id, server_id)  # before the evictions it causes
            outcome = serve(page_id, version, size, match_count, now)
            latency = HIT_LATENCY if outcome.hit else HIT_LATENCY + miss_latency
            obs.request_outcome(now, page_id, server_id, _outcome_kind(outcome), latency)
            return outcome

        return on_publish, on_request

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
        self._replay(env)
        if self._obs_on:
            # The inline arm never advances the agenda's clock; the
            # last record's time is the handler time it stamped.
            obs.run_end(
                max(env.now, self._obs_now),
                cache_used_bytes=sum(
                    proxy.policy.used_bytes for proxy in self.proxies
                ),
            )
        return self._collect(time.perf_counter() - started)

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

    def _collect(self, wall_seconds: float) -> SimulationResult:
        hour_count = int(self.workload.config.horizon // 3600.0) + 1
        last_hour = hour_count - 1
        hourly_requests = [0] * hour_count
        hourly_hits = [0] * hour_count
        # Hours at or beyond the horizon boundary (events stamped at
        # exactly ``hour_count`` hours) clamp into the final bucket so
        # no event is dropped; see ``metrics.dense_clamped``.
        for proxy in self.proxies:
            stats = proxy.stats
            for hour, count in stats.bucketed_requests.items():
                hourly_requests[min(hour, last_hour)] += count
            for hour, count in stats.bucketed_hits.items():
                hourly_hits[min(hour, last_hour)] += count
        for hour, count in self._unserved_by_hour.items():
            hourly_requests[min(hour, last_hour)] += count

        total_requests = sum(proxy.stats.requests for proxy in self.proxies)
        total_requests += sum(self._unserved_by_hour.values())
        total_hits = sum(proxy.stats.hits for proxy in self.proxies)
        total_stale = sum(proxy.stats.stale_hits for proxy in self.proxies)

        result = SimulationResult(
            strategy=self.config.strategy,
            trace_label=self.workload.label or "custom",
            capacity_fraction=self.config.capacity_fraction,
            subscription_quality=self.config.subscription_quality,
            pushing_scheme=self.config.pushing.value,
            requests=total_requests,
            hits=total_hits,
            stale_hits=total_stale,
            push_transfers=self.publisher.total_push_pages,
            push_bytes=self.publisher.total_push_bytes,
            fetch_pages=self.publisher.total_fetch_pages,
            fetch_bytes=self.publisher.total_fetch_bytes,
            hour_count=hour_count,
            hourly_requests=hourly_requests,
            hourly_hits=hourly_hits,
            hourly_push_pages=dense_counts(self.publisher.push_pages_by_hour, hour_count),
            hourly_fetch_pages=dense_counts(self.publisher.fetch_pages_by_hour, hour_count),
            hourly_push_bytes=dense_counts(self.publisher.push_bytes_by_hour, hour_count),
            hourly_fetch_bytes=dense_counts(self.publisher.fetch_bytes_by_hour, hour_count),
            per_proxy=[proxy.stats for proxy in self.proxies],
            wall_seconds=wall_seconds,
            # Summed over proxies in server order — the same expression
            # a sharded merge evaluates, so the total is bit-identical
            # across worker counts (float addition is order-sensitive).
            total_response_time=sum(
                proxy.stats.response_time for proxy in self.proxies
            ),
        )
        if self._recovery is not None or self._overload is not None:
            # Both layers route refused/unservable requests through the
            # shared failed/degraded books.
            result.failed_requests = sum(self._failed_by_hour.values())
            result.degraded_requests = sum(self._degraded_by_hour.values())
            result.hourly_failed = dense_counts(self._failed_by_hour, hour_count)
            result.hourly_degraded = dense_counts(self._degraded_by_hour, hour_count)
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


def run_simulation(
    workload: Workload,
    config: SimulationConfig,
    match_table: Optional[TraceMatchCounts] = None,
    topology: Optional[Topology] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    observer: Optional[Observer] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    return Simulation(
        workload,
        config,
        match_table,
        topology,
        fault_schedule=fault_schedule,
        observer=observer,
    ).run()

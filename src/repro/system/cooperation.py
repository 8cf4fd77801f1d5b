"""Cooperative proxies — an extension beyond the paper.

The paper's proxies are independent: every miss goes to the publisher.
Its related-work section discusses cooperative/hierarchical caching
(Gadde et al.; Wolman et al.), so this extension adds the natural next
step: on a local miss, a proxy first asks its ``neighbor_count``
closest peers (by overlay hop distance) for the *current version* of
the page and fetches from the nearest holder instead of the origin.

Cooperation changes where a request that leaves its proxy is resolved
(docs/architecture.md, "One loop"): a simulation built with
``neighbor_count > 0`` holds one :class:`Peers` object, and the request
tails and overload's refused pulls resolve off-proxy through
:meth:`Peers.fetch` instead of the origin.  The object is *handed* the
simulation per call and keeps no reference back, so a finished run is
still freed by reference count.  It touches state outside its proxy by
design: it reads its peers' caches and up state.

Placement decisions are untouched — each proxy still runs its own
strategy on local information — so the comparison isolates how much
peering adds on top of each content distribution strategy.  Peer
fetches are counted separately (``peer_fetch_pages``) and priced at the
inter-proxy distance in the response-time model.

Under the fault layer a peer request can hit a *crashed* peer: the
requester pays :data:`PEER_TIMEOUT` for the dead probe and fails over down
the chain — next-nearest live holder, then the origin (with the origin
retry/backoff rules) — so cooperation degrades gracefully instead of
hanging on dead neighbours.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.network.topology import Topology
from repro.pubsub.matching import TraceMatchCounts
from repro.system.config import PER_HOP_LATENCY, SimulationConfig
from repro.system.metrics import SimulationResult
from repro.system.proxy import ProxyServer
from repro.system.simulator import Simulation
from repro.workload.trace import Workload

#: Modelled cost (seconds) of a request to a crashed peer proxy timing
#: out before the failover chain moves on.
PEER_TIMEOUT = 0.25


class Peers:
    """Who each proxy asks before the origin, and what that saved."""

    def __init__(self, topology: Topology, neighbor_count: int) -> None:
        #: For each proxy: its k nearest peer proxies as (index, hops).
        self.neighbors = topology.nearest_proxies(neighbor_count)
        self.fetch_pages = 0
        self.fetch_bytes = 0

    def fetch(
        self,
        sim: Simulation,
        proxy: ProxyServer,
        server_id: int,
        page_id: int,
        version: int,
        size: int,
        now: float,
    ) -> Optional[Tuple[float, bool]]:
        """The failover chain: nearest live holder, next, ..., origin.

        Same contract as ``Simulation._origin_resolution``, which it
        ends in.  Peers strictly closer than the origin — a farther one
        could not beat an origin fetch — are probed in distance order.
        A crashed peer costs :data:`PEER_TIMEOUT` seconds before the chain
        moves on; the first live peer holding the current version
        serves the fetch.  When the chain is exhausted the origin is the
        terminal fallback, with its usual outage retry rules — so the
        worst case is dead-peer timeouts plus origin backoff, and the
        request only *fails* if the origin retries are also exhausted.
        """
        obs_on = sim._obs_on
        waited = 0.0
        timed_out = 0
        origin_cost = proxy.policy.cost
        for peer_index, hops in self.neighbors[server_id]:
            if max(1.0, hops) >= origin_cost:
                break  # neighbors are distance-sorted: no closer peer exists
            peer = sim.proxies[peer_index]
            if not peer.up:
                # Dead probe: pay the timeout, fail over to the next hop.
                waited += PEER_TIMEOUT
                timed_out += 1
                if obs_on:
                    sim.obs.failover(
                        now,
                        server_id,
                        page_id,
                        target=f"peer:{peer_index}",
                        reason="peer-down",
                    )
                continue
            if peer.policy.held_version(page_id) == version:
                self.fetch_pages += 1
                self.fetch_bytes += size
                if obs_on:
                    sim.obs.fetch(
                        now, page_id, server_id, source=f"peer:{peer_index}"
                    )
                latency, degraded = sim._degrade_transfer(
                    PER_HOP_LATENCY * max(1.0, hops), server_id, now
                )
                return waited + latency, degraded or timed_out > 0
        resolution = sim._origin_resolution(
            proxy, server_id, page_id, version, size, now
        )
        if resolution is None:
            return None
        extra_latency, degraded = resolution
        return waited + extra_latency, degraded or timed_out > 0

    def collect(self, result: SimulationResult) -> None:
        result.peer_fetch_pages = self.fetch_pages
        result.peer_fetch_bytes = self.fetch_bytes


class CooperativeSimulation(Simulation):
    """A :class:`Simulation` with the peers stage armed by default."""

    def __init__(
        self,
        workload: Workload,
        config: SimulationConfig,
        match_table: Optional[TraceMatchCounts] = None,
        topology: Optional[Topology] = None,
        neighbor_count: int = 3,
    ) -> None:
        super().__init__(
            workload, config, match_table, topology, neighbor_count=neighbor_count
        )


def run_cooperative_simulation(
    workload: Workload,
    config: SimulationConfig,
    neighbor_count: int = 3,
    match_table: Optional[TraceMatchCounts] = None,
    topology: Optional[Topology] = None,
) -> SimulationResult:
    """Convenience wrapper mirroring :func:`run_simulation`."""
    return CooperativeSimulation(
        workload,
        config,
        match_table=match_table,
        topology=topology,
        neighbor_count=neighbor_count,
    ).run()

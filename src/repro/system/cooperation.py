"""Cooperative proxies — an extension beyond the paper.

The paper's proxies are independent: every miss goes to the publisher.
Its related-work section discusses cooperative/hierarchical caching
(Gadde et al.; Wolman et al.), so this extension adds the natural next
step: on a local miss, a proxy first asks its ``neighbor_count``
closest peers (by overlay hop distance) for the *current version* of
the page and fetches from the nearest holder instead of the origin.

Placement decisions are untouched — each proxy still runs its own
strategy on local information — so the comparison isolates how much
peering adds on top of each content distribution strategy.  Peer
fetches are counted separately (``peer_fetch_pages``) and priced at the
inter-proxy distance in the response-time model.

Under the fault layer a peer request can hit a *crashed* peer: the
requester pays ``peer_timeout`` for the dead probe and fails over down
the chain — next-nearest live holder, then the origin (with the origin
retry/backoff rules) — so cooperation degrades gracefully instead of
hanging on dead neighbours.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.network.topology import Topology
from repro.obs.recorder import Observer
from repro.pubsub.matching import TraceMatchCounts
from repro.system.config import SimulationConfig
from repro.system.metrics import SimulationResult
from repro.system.proxy import ProxyServer
from repro.system.simulator import Simulation
from repro.workload.trace import Workload

if TYPE_CHECKING:
    from repro.faults.schedule import FaultSchedule


class CooperativeSimulation(Simulation):
    """A :class:`Simulation` whose proxies answer each other's misses."""

    def __init__(
        self,
        workload: Workload,
        config: SimulationConfig,
        match_table: Optional[TraceMatchCounts] = None,
        topology: Optional[Topology] = None,
        neighbor_count: int = 3,
        fault_schedule: Optional[FaultSchedule] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if neighbor_count < 0:
            raise ValueError(f"neighbor_count must be >= 0, got {neighbor_count}")
        super().__init__(
            workload,
            config,
            match_table,
            topology,
            fault_schedule=fault_schedule,
            observer=observer,
        )
        self.neighbor_count = int(neighbor_count)
        self._neighbors = self._nearest_neighbors()
        self.peer_fetch_pages = 0
        self.peer_fetch_bytes = 0
        self.peer_fetch_pages_by_hour: Dict[int, int] = {}

    def _nearest_neighbors(self) -> List[List[Tuple[int, float]]]:
        """For each proxy: its k nearest peer proxies as (index, hops)."""
        graph = self.topology.graph
        proxy_nodes = self.topology.proxy_nodes
        node_to_index = {node: index for index, node in enumerate(proxy_nodes)}
        neighbors: List[List[Tuple[int, float]]] = []
        for node in proxy_nodes:
            distances = graph.shortest_paths_from(node)
            peers = sorted(
                (
                    (node_to_index[other], hops)
                    for other, hops in distances.items()
                    if other in node_to_index and other != node
                ),
                key=lambda pair: (pair[1], pair[0]),
            )
            neighbors.append(peers[: self.neighbor_count])
        return neighbors

    def _record_peer_fetch(self, size: int, now: float) -> None:
        self.peer_fetch_pages += 1
        self.peer_fetch_bytes += size
        hour = int(now // 3600.0)
        self.peer_fetch_pages_by_hour[hour] = (
            self.peer_fetch_pages_by_hour.get(hour, 0) + 1
        )

    def _fetch_on_miss(
        self,
        proxy: ProxyServer,
        server_id: int,
        page_id: int,
        version: int,
        size: int,
        now: float,
    ) -> Optional[Tuple[float, bool]]:
        """The failover chain: nearest live holder, next, ..., origin.

        Overriding this hook is what routes every request of a
        cooperative run through the base class's layered handler, with
        or without faults.  Peers strictly closer than the origin — a
        farther one could not beat an origin fetch — are probed in
        distance order.  A crashed peer costs ``peer_timeout`` seconds before the
        chain moves on; the first live peer holding the current version
        serves the fetch.  When the chain is exhausted the origin is the
        terminal fallback, with its usual outage retry rules — so the
        worst case is dead-peer timeouts plus origin backoff, and the
        request only *fails* if the origin retries are also exhausted.
        """
        obs_on = self._obs_on
        waited = 0.0
        timed_out = 0
        origin_cost = proxy.policy.cost
        for peer_index, hops in self._neighbors[server_id]:
            if max(1.0, hops) >= origin_cost:
                break  # neighbors are distance-sorted: no closer peer exists
            peer = self.proxies[peer_index]
            if not peer.up:
                # Dead probe: pay the timeout, fail over to the next hop.
                waited += self.chaos.peer_timeout
                timed_out += 1
                if obs_on:
                    self.obs.failover(
                        now,
                        server_id,
                        page_id,
                        target=f"peer:{peer_index}",
                        reason="peer-down",
                    )
                continue
            policy = peer.policy
            if policy.contains(page_id) and policy.cached_version(page_id) == version:
                self._record_peer_fetch(size, now)
                if obs_on:
                    self.obs.fetch(
                        now, page_id, server_id, source=f"peer:{peer_index}"
                    )
                latency, degraded = self._degrade_transfer(
                    self.config.per_hop_latency * max(1.0, hops), server_id, now
                )
                return waited + latency, degraded or timed_out > 0
        resolution = self._origin_resolution(proxy, server_id, page_id, now)
        if resolution is None:
            return None
        extra_latency, degraded = resolution
        return waited + extra_latency, degraded or timed_out > 0

    def _attach_observer(self) -> None:
        super()._attach_observer()
        profiler = self.obs.profiler
        if profiler is not None:
            # Instance-attribute shadowing, like ProxyServer.instrument.
            self._fetch_on_miss = profiler.wrap(
                self._fetch_on_miss, "coop.peer_lookup"
            )

    def _collect(self, wall_seconds: float) -> SimulationResult:
        result = super()._collect(wall_seconds)
        result.peer_fetch_pages = self.peer_fetch_pages
        result.peer_fetch_bytes = self.peer_fetch_bytes
        return result


def run_cooperative_simulation(
    workload: Workload,
    config: SimulationConfig,
    neighbor_count: int = 3,
    match_table: Optional[TraceMatchCounts] = None,
    topology: Optional[Topology] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    observer: Optional[Observer] = None,
) -> SimulationResult:
    """Convenience wrapper mirroring :func:`run_simulation`."""
    return CooperativeSimulation(
        workload,
        config,
        match_table=match_table,
        topology=topology,
        neighbor_count=neighbor_count,
        fault_schedule=fault_schedule,
        observer=observer,
    ).run()

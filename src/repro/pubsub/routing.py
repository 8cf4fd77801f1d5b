"""Notification routing.

The routing engine delivers notifications (flow 3 of Figure 1) from the
broker to the proxies whose aggregated subscriptions matched a page.
In the paper the brokering system may be centralized or distributed;
this implementation routes over the proxy/publisher overlay from
:mod:`repro.network` along shortest paths, which lets the examples and
tests account for notification traffic per link as well.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.network.topology import Topology

if TYPE_CHECKING:
    from repro.pubsub.pages import Notification


class RoutingTable:
    """Shortest-path next-hop table rooted at the publisher node."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        graph = topology.graph
        source = topology.publisher_node
        # Dijkstra with parent pointers (hop metric, deterministic ties).
        import heapq

        distance: Dict[int, float] = {source: 0.0}
        parent: Dict[int, Optional[int]] = {source: None}
        frontier: List[Tuple[float, int]] = [(0.0, source)]
        while frontier:
            dist, node = heapq.heappop(frontier)
            if dist > distance.get(node, float("inf")):
                continue
            for neighbor in sorted(graph.neighbors(node)):
                candidate = dist + 1.0
                if candidate < distance.get(neighbor, float("inf")):
                    distance[neighbor] = candidate
                    parent[neighbor] = node
                    heapq.heappush(frontier, (candidate, neighbor))
        self._parent = parent
        self._distance = distance

    def path_to(self, node: int) -> List[int]:
        """Publisher-to-node path as a list of nodes (inclusive)."""
        if node not in self._parent:
            raise KeyError(f"node {node} unreachable from publisher")
        path = [node]
        while self._parent[path[-1]] is not None:
            path.append(self._parent[path[-1]])
        path.reverse()
        return path

    def hops_to(self, node: int) -> int:
        return int(self._distance[node])


class SequenceTracker:
    """Receiver-side sequence bookkeeping over an unreliable channel.

    Tracks, per page, the highest sequence number delivered so far and
    classifies each arriving notification:

    * ``"duplicate"`` — the sequence was already seen (a retransmission
      racing its ack, or a late reordered copy of an old version);
      the receiver must suppress it.
    * ``"gap"`` — the sequence jumps past the expected next one: at
      least one earlier notification was lost or is still in flight.
      With latest-version-wins semantics the arriving notification
      itself heals the gap, but the detection is what access-time
      staleness repair and the metrics are keyed off.
    * ``"new"`` — the expected in-order delivery.

    A first-ever delivery with ``sequence > 0`` counts as a gap: under
    the static subscription tables of a simulation run a matched proxy
    is matched for every version, so the missing prefix was lost (for
    example while the proxy was down).
    """

    __slots__ = ("_last", "duplicates", "gaps")

    def __init__(self) -> None:
        self._last: Dict[int, int] = {}
        self.duplicates = 0
        self.gaps = 0

    def observe(self, page_id: int, sequence: int) -> str:
        """Classify one arrival and update the per-page high-water mark."""
        last = self._last.get(page_id)
        if last is not None and sequence <= last:
            self.duplicates += 1
            return "duplicate"
        expected = 0 if last is None else last + 1
        self._last[page_id] = sequence
        if sequence > expected:
            self.gaps += 1
            return "gap"
        return "new"

    def last_seen(self, page_id: int) -> Optional[int]:
        """Highest sequence delivered for ``page_id``, or None."""
        return self._last.get(page_id)

    def learn(self, page_id: int, sequence: int) -> None:
        """Raise the high-water mark out of band (e.g. after a demand
        fetch taught the receiver the current version)."""
        last = self._last.get(page_id)
        if last is None or sequence > last:
            self._last[page_id] = sequence

    def reset(self) -> None:
        """Forget all per-page state (receiver restarted cold)."""
        self._last.clear()


class RoutingEngine:
    """Delivers notifications to proxies and tallies link usage."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.table = RoutingTable(topology)
        #: (u, v) normalized edge -> number of notification messages carried.
        self.link_messages: Dict[Tuple[int, int], int] = defaultdict(int)
        self._delivery_hooks: List[Callable[[int, Notification], None]] = []

    def on_delivery(self, hook: Callable[[int, Notification], None]) -> None:
        """Register ``hook(proxy_index, notification)`` for each delivery."""
        self._delivery_hooks.append(hook)

    def deliver(self, notification: Notification, proxy_indices: Sequence[int]) -> int:
        """Route ``notification`` to each proxy in ``proxy_indices``.

        Link usage is counted per traversed edge with multicast
        de-duplication: an edge shared by several destination paths
        carries the message once, as a broker tree would.

        Returns the total number of link-level messages sent.
        """
        edges_used: set = set()
        for proxy_index in proxy_indices:
            node = self.topology.proxy_nodes[proxy_index]
            path = self.table.path_to(node)
            for u, v in zip(path, path[1:]):
                edges_used.add((min(u, v), max(u, v)))
        for edge in edges_used:
            self.link_messages[edge] += 1
        for proxy_index in proxy_indices:
            for hook in self._delivery_hooks:
                hook(proxy_index, notification)
        return len(edges_used)

    @property
    def total_messages(self) -> int:
        return sum(self.link_messages.values())

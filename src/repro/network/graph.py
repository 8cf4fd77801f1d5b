"""A small undirected graph with hop-count shortest-path queries.

Kept dependency-free (plain dicts and a binary heap) so the topology
substrate does not require networkx at runtime; the test suite
cross-checks distances against networkx where it is available.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Set, Tuple


class Graph:
    """Undirected graph: each node's neighbour set."""

    def __init__(self) -> None:
        self._adjacency: Dict[int, Set[int]] = {}
        #: Optional (x, y) coordinates per node, set by geometric generators.
        self.positions: Dict[int, Tuple[float, float]] = {}

    # -- construction ------------------------------------------------------

    def add_node(self, node: int) -> None:
        """Add ``node`` (no-op if it already exists)."""
        self._adjacency.setdefault(int(node), set())

    def add_edge(self, u: int, v: int) -> None:
        """Add an undirected edge (no-op if it already exists)."""
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u})")
        self.add_node(u)
        self.add_node(v)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    # -- queries -------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._adjacency)

    def nodes(self) -> Iterator[int]:
        return iter(self._adjacency)

    # -- algorithms ------------------------------------------------------------

    def shortest_paths_from(self, source: int) -> Dict[int, float]:
        """Hop distance from ``source`` to every reachable node (the
        paper uses hop distance as fetch cost)."""
        if source not in self._adjacency:
            raise KeyError(f"unknown node: {source}")
        distances: Dict[int, float] = {source: 0.0}
        frontier: List[Tuple[float, int]] = [(0.0, source)]
        while frontier:
            dist, node = heapq.heappop(frontier)
            if dist > distances.get(node, math.inf):
                continue
            for neighbor in self._adjacency[node]:
                candidate = dist + 1.0
                if candidate < distances.get(neighbor, math.inf):
                    distances[neighbor] = candidate
                    heapq.heappush(frontier, (candidate, neighbor))
        return distances

    def is_connected(self) -> bool:
        """``True`` if every node is reachable from every other."""
        if not self._adjacency:
            return True
        first = next(iter(self._adjacency))
        return len(self.shortest_paths_from(first)) == self.node_count

    def connect_components(self) -> int:
        """Link disconnected components with minimal extra edges.

        Components are joined through their geometrically closest node
        pair when positions are available, else through arbitrary
        representatives.  Returns the number of edges added.
        """
        components = self._components()
        added = 0
        while len(components) > 1:
            base = components[0]
            other = components[1]
            u, v = self._closest_pair(base, other)
            self.add_edge(u, v)
            components = [base | other] + components[2:]
            added += 1
        return added

    def _components(self) -> List[set]:
        seen: set = set()
        components: List[set] = []
        for node in self._adjacency:
            if node in seen:
                continue
            component = set(self.shortest_paths_from(node))
            seen |= component
            components.append(component)
        return components

    def _closest_pair(self, left: set, right: set) -> Tuple[int, int]:
        if not self.positions:
            return (next(iter(left)), next(iter(right)))
        best = (math.inf, -1, -1)
        for u in left:
            for v in right:
                dist = self._euclidean(u, v)
                if dist < best[0]:
                    best = (dist, u, v)
        return (best[1], best[2])

    def _euclidean(self, u: int, v: int) -> float:
        (ux, uy), (vx, vy) = self.positions[u], self.positions[v]
        return math.hypot(ux - vx, uy - vy)

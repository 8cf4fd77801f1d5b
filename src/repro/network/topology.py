"""Publisher/proxy placement on a generated topology.

The replacement policies need a single number per proxy: the network
distance to the origin publisher, used as the fetch cost ``c(p)`` for
every page served from that proxy (§3.1).  :class:`Topology` computes
and caches those distances.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.network.graph import Graph
from repro.network.waxman import waxman_graph


class Topology:
    """A graph with a designated publisher and a set of proxy nodes."""

    def __init__(self, graph: Graph, publisher_node: int, proxy_nodes: Sequence[int]) -> None:
        if publisher_node not in set(graph.nodes()):
            raise ValueError(f"publisher node {publisher_node} not in graph")
        missing = [node for node in proxy_nodes if node not in set(graph.nodes())]
        if missing:
            raise ValueError(f"proxy nodes not in graph: {missing}")
        self.graph = graph
        self.publisher_node = int(publisher_node)
        self.proxy_nodes: List[int] = [int(node) for node in proxy_nodes]
        distances = graph.shortest_paths_from(self.publisher_node, weighted=False)
        unreachable = [node for node in self.proxy_nodes if node not in distances]
        if unreachable:
            raise ValueError(f"proxies unreachable from publisher: {unreachable}")
        self._hops: Dict[int, float] = {
            node: distances[node] for node in self.proxy_nodes
        }

    @property
    def proxy_count(self) -> int:
        return len(self.proxy_nodes)

    def fetch_cost(self, proxy_index: int) -> float:
        """Hop distance from proxy ``proxy_index`` to the publisher.

        A co-located proxy would have distance 0, which would zero out
        every page value; following Cao & Irani we count the final hop
        to the origin server, so the cost is at least 1.
        """
        node = self.proxy_nodes[proxy_index]
        return max(1.0, self._hops[node])

    def fetch_costs(self) -> List[float]:
        """Fetch cost for every proxy, indexed by proxy number."""
        return [self.fetch_cost(index) for index in range(self.proxy_count)]

    def nearest_proxies(self, count: int) -> List[List[Tuple[int, float]]]:
        """For each proxy: its ``count`` nearest peer proxies as
        ``(proxy index, hops)``, nearest first, ties by index."""
        node_to_index = {node: index for index, node in enumerate(self.proxy_nodes)}
        neighbors = []
        for node in self.proxy_nodes:
            distances = self.graph.shortest_paths_from(node)
            peers = sorted(
                (
                    (node_to_index[other], hops)
                    for other, hops in distances.items()
                    if other in node_to_index and other != node
                ),
                key=lambda pair: (pair[1], pair[0]),
            )
            neighbors.append(peers[:count])
        return neighbors

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Serialize the placement and its graph to JSON."""
        import json

        payload = {
            "publisher_node": self.publisher_node,
            "proxy_nodes": self.proxy_nodes,
            "nodes": sorted(self.graph.nodes()),
            "edges": [[u, v, w] for u, v, w in self.graph.edges()],
            "positions": {
                str(node): [x, y] for node, (x, y) in self.graph.positions.items()
            },
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "Topology":
        """Rebuild a topology serialized with :meth:`to_json`.

        Hop distances are recomputed from the graph, which is
        deterministic, so a round-tripped topology yields the same
        fetch costs as the original.
        """
        import json

        payload = json.loads(text)
        graph = Graph()
        for node in payload["nodes"]:
            graph.add_node(int(node))
        for u, v, weight in payload["edges"]:
            graph.add_edge(int(u), int(v), float(weight))
        graph.positions = {
            int(node): (float(x), float(y))
            for node, (x, y) in payload.get("positions", {}).items()
        }
        return cls(
            graph,
            publisher_node=int(payload["publisher_node"]),
            proxy_nodes=[int(node) for node in payload["proxy_nodes"]],
        )


def build_topology(
    proxy_count: int,
    rng: np.random.Generator,
    model: str = "waxman",
    extra_nodes: int = 0,
    **model_kwargs,
) -> Topology:
    """Generate a topology hosting one publisher and ``proxy_count`` proxies.

    Args:
        proxy_count: number of proxy servers to place.
        rng: random stream for the generator.
        model: ``"waxman"`` (BRITE default) or ``"barabasi"``.
        extra_nodes: additional transit-only nodes (routers that host
            neither the publisher nor a proxy), enlarging path spread.
        **model_kwargs: forwarded to the graph generator.

    The publisher sits on node 0; proxies occupy nodes
    ``1 .. proxy_count`` and any remaining nodes are transit routers.
    """
    if proxy_count < 1:
        raise ValueError(f"proxy_count must be >= 1, got {proxy_count}")
    node_count = 1 + proxy_count + max(0, int(extra_nodes))
    if model == "waxman":
        graph = waxman_graph(node_count, rng, **model_kwargs)
    elif model == "barabasi":
        from repro.network.barabasi import barabasi_albert_graph

        graph = barabasi_albert_graph(node_count, rng, **model_kwargs)
    else:
        raise ValueError(f"unknown topology model: {model!r}")
    if not graph.is_connected():
        graph.connect_components()
    proxy_nodes = list(range(1, proxy_count + 1))
    return Topology(graph, publisher_node=0, proxy_nodes=proxy_nodes)

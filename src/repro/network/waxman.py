"""Waxman random topology (BRITE's default router-level model).

Nodes are placed uniformly at random on a ``PLANE_SIZE`` x
``PLANE_SIZE`` plane; each candidate edge (u, v) exists with
probability::

    P(u, v) = ALPHA * exp(-d(u, v) / (BETA * L))

where ``d`` is the Euclidean distance and ``L`` the maximum possible
distance (the plane diagonal).  BRITE's defaults are ALPHA = 0.15 and
BETA = 0.2 with incremental node joining (each new node connects to
``LINKS_PER_NODE`` existing nodes chosen by the Waxman probability);
that is the variant implemented here, which also guarantees
connectivity.
"""

from __future__ import annotations

import math

import numpy as np

from repro.network.graph import Graph

#: Waxman edge-probability scale (BRITE's default).
ALPHA = 0.15
#: Waxman distance decay: larger makes longer edges likelier (BRITE's default).
BETA = 0.2
#: Edges added per joining node (BRITE's ``m``).
LINKS_PER_NODE = 2
#: Side of the placement square.
PLANE_SIZE = 1000.0


def waxman_graph(node_count: int, rng: np.random.Generator) -> Graph:
    """Generate a connected Waxman graph with BRITE-style incremental growth.

    Args:
        node_count: number of nodes (>= 1).
        rng: the random stream to draw from.

    Returns:
        A connected :class:`Graph` whose ``positions`` carry node
        coordinates.
    """
    if node_count < 1:
        raise ValueError(f"node_count must be >= 1, got {node_count}")

    graph = Graph()
    coordinates = rng.uniform(0.0, PLANE_SIZE, size=(node_count, 2))
    max_distance = PLANE_SIZE * math.sqrt(2.0)

    for node in range(node_count):
        graph.add_node(node)
        graph.positions[node] = (float(coordinates[node, 0]), float(coordinates[node, 1]))
        if node == 0:
            continue
        # Waxman probability against every already-placed node.
        existing = coordinates[:node]
        deltas = existing - coordinates[node]
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        probabilities = ALPHA * np.exp(-distances / (BETA * max_distance))
        total = float(probabilities.sum())
        picks = min(LINKS_PER_NODE, node)
        if total <= 0.0:
            chosen = rng.choice(node, size=picks, replace=False)
        else:
            chosen = rng.choice(
                node, size=picks, replace=False, p=probabilities / total
            )
        for neighbor in np.atleast_1d(chosen):
            graph.add_edge(node, int(neighbor))
    return graph

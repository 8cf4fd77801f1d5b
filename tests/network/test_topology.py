"""Tests for publisher/proxy topology placement."""

import numpy as np
import pytest

from repro.network.graph import Graph
from repro.network.topology import TRANSIT_NODES, Topology, build_topology


def line_topology():
    graph = Graph()
    graph.add_edge(0, 1)
    graph.add_edge(1, 2)
    graph.add_edge(2, 3)
    return Topology(graph, publisher_node=0, proxy_nodes=[1, 2, 3])


def test_fetch_cost_is_hop_distance():
    topology = line_topology()
    assert topology.fetch_cost(0) == 1.0
    assert topology.fetch_cost(1) == 2.0
    assert topology.fetch_cost(2) == 3.0


def test_fetch_cost_floor_is_one():
    graph = Graph()
    graph.add_edge(0, 1)
    topology = Topology(graph, publisher_node=0, proxy_nodes=[0])
    assert topology.fetch_cost(0) == 1.0  # co-located proxy still costs 1


def test_fetch_costs_list():
    topology = line_topology()
    assert topology.fetch_costs() == [1.0, 2.0, 3.0]


def test_unknown_publisher_rejected():
    graph = Graph()
    graph.add_edge(0, 1)
    with pytest.raises(ValueError):
        Topology(graph, publisher_node=9, proxy_nodes=[1])


def test_unknown_proxy_rejected():
    graph = Graph()
    graph.add_edge(0, 1)
    with pytest.raises(ValueError):
        Topology(graph, publisher_node=0, proxy_nodes=[1, 7])


def test_unreachable_proxy_rejected():
    graph = Graph()
    graph.add_edge(0, 1)
    graph.add_node(2)
    with pytest.raises(ValueError):
        Topology(graph, publisher_node=0, proxy_nodes=[1, 2])


def test_build_topology_waxman():
    rng = np.random.default_rng(0)
    topology = build_topology(10, rng, extra_nodes=5)
    assert topology.proxy_count == 10
    assert topology.graph.node_count == 16
    assert all(cost >= 1.0 for cost in topology.fetch_costs())
    # Every run's topology carries the fixed transit routers.
    assert build_topology(10, rng).graph.node_count == 11 + TRANSIT_NODES


def test_build_topology_validates_proxy_count():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        build_topology(0, rng)


def test_build_topology_deterministic():
    a = build_topology(8, np.random.default_rng(3))
    b = build_topology(8, np.random.default_rng(3))
    assert a.fetch_costs() == b.fetch_costs()

"""Tests for the pure-Python graph."""

import pytest

from repro.network.graph import Graph


def edges(graph):
    """Each undirected edge once as ``(u, v)`` with u < v, sorted."""
    return sorted(
        (u, v)
        for u, neighbors in graph._adjacency.items()
        for v in neighbors
        if u < v
    )


def path_graph(n):
    graph = Graph()
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def test_add_nodes_and_edges():
    graph = Graph()
    graph.add_edge(0, 1)
    assert graph.node_count == 2
    assert edges(graph) == [(0, 1)]


def test_self_loop_rejected():
    graph = Graph()
    with pytest.raises(ValueError):
        graph.add_edge(3, 3)


def test_readd_edge_is_a_no_op():
    graph = Graph()
    graph.add_edge(0, 1)
    graph.add_edge(1, 0)
    assert edges(graph) == [(0, 1)]


def test_edges_listed_once():
    graph = path_graph(4)
    listed = edges(graph)
    assert len(listed) == 3
    assert all(u < v for u, v in listed)


def test_hop_distances_on_path():
    graph = path_graph(5)
    distances = graph.shortest_paths_from(0)
    assert distances == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}


def test_unknown_source_raises():
    graph = path_graph(2)
    with pytest.raises(KeyError):
        graph.shortest_paths_from(99)


def test_connectivity_detection():
    graph = path_graph(3)
    assert graph.is_connected()
    graph.add_node(99)
    assert not graph.is_connected()


def test_connect_components_links_everything():
    graph = Graph()
    graph.add_edge(0, 1)
    graph.add_edge(2, 3)
    graph.add_node(4)
    added = graph.connect_components()
    assert added == 2
    assert graph.is_connected()


def test_connect_components_uses_positions():
    graph = Graph()
    graph.add_edge(0, 1)
    graph.add_edge(2, 3)
    graph.positions = {0: (0, 0), 1: (1, 0), 2: (1.1, 0), 3: (50, 0)}
    graph.connect_components()
    # closest pair across components is (1, 2)
    assert (1, 2) in edges(graph)


def test_empty_graph_is_connected():
    assert Graph().is_connected()


def test_distances_match_networkx_when_available():
    networkx = pytest.importorskip("networkx")
    import numpy as np

    rng = np.random.default_rng(3)
    graph = Graph()
    reference = networkx.Graph()
    for _ in range(60):
        u, v = rng.integers(0, 20, size=2)
        if u == v:
            continue
        graph.add_edge(int(u), int(v))
        reference.add_edge(int(u), int(v))
    source = next(iter(graph.nodes()))
    ours = graph.shortest_paths_from(source)
    theirs = networkx.single_source_shortest_path_length(reference, source)
    assert ours == {node: float(dist) for node, dist in theirs.items()}

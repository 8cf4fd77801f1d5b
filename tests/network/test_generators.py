"""Tests for the Waxman topology generator."""

import numpy as np
import pytest

from repro.network.waxman import LINKS_PER_NODE, PLANE_SIZE, waxman_graph
from tests.network.test_graph import edges


def rng(seed=0):
    return np.random.default_rng(seed)


class TestWaxman:
    def test_node_count(self):
        graph = waxman_graph(30, rng())
        assert graph.node_count == 30

    def test_connected_by_construction(self):
        for seed in range(5):
            graph = waxman_graph(40, rng(seed))
            assert graph.is_connected()

    def test_positions_assigned_within_plane(self):
        graph = waxman_graph(20, rng())
        assert len(graph.positions) == 20
        for x, y in graph.positions.values():
            assert 0.0 <= x <= PLANE_SIZE
            assert 0.0 <= y <= PLANE_SIZE

    def test_links_per_node_bounds_edges(self):
        graph = waxman_graph(25, rng())
        # each joining node adds at most LINKS_PER_NODE edges
        assert len(edges(graph)) <= LINKS_PER_NODE * 24

    def test_deterministic_for_same_stream(self):
        a = waxman_graph(20, rng(7))
        b = waxman_graph(20, rng(7))
        assert edges(a) == edges(b)

    def test_single_node(self):
        graph = waxman_graph(1, rng())
        assert graph.node_count == 1
        assert edges(graph) == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            waxman_graph(0, rng())

    def test_short_edges_preferred(self):
        graph = waxman_graph(120, rng(1))
        lengths = [
            np.hypot(*np.subtract(graph.positions[u], graph.positions[v]))
            for u, v in edges(graph)
        ]
        diag = PLANE_SIZE * 2**0.5
        assert np.mean(lengths) < 0.4 * diag

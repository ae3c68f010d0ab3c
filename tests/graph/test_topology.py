"""Unit tests for repro.graph.topology."""

import numpy as np
import pytest

from repro.graph import Topology


class TestConstruction:
    def test_fully_connected_edge_count(self):
        topo = Topology.fully_connected(6)
        assert len(topo.edges()) == 15

    def test_fully_connected_degrees(self):
        topo = Topology.fully_connected(5)
        assert all(topo.degree(i) == 4 for i in range(5))

    def test_ring_degrees(self):
        topo = Topology.ring(6)
        assert all(topo.degree(i) == 2 for i in range(6))

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError, match="at least 3"):
            Topology.ring(2)

    def test_star_center_degree(self):
        topo = Topology.star(5)
        assert topo.degree(0) == 4
        assert all(topo.degree(i) == 1 for i in range(1, 5))

    def test_from_edges(self):
        topo = Topology.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert topo.has_edge(1, 2)
        assert not topo.has_edge(0, 3)

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology.from_edges(3, [(1, 1)])

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Topology.from_edges(3, [(0, 5)])

    def test_asymmetric_adjacency_rejected(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = True
        with pytest.raises(ValueError, match="symmetric"):
            Topology(adjacency)

    def test_diagonal_adjacency_rejected(self):
        adjacency = np.eye(3, dtype=bool)
        with pytest.raises(ValueError, match="self-loops"):
            Topology(adjacency)

    def test_minimum_two_workers(self):
        with pytest.raises(ValueError, match="at least 2"):
            Topology(np.zeros((1, 1), dtype=bool))

    def test_random_connected_always_connected(self, rng):
        for probability in (0.0, 0.2, 0.9):
            topo = Topology.random_connected(8, probability, rng)
            assert topo.is_connected()

    def test_random_connected_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError, match="edge_probability"):
            Topology.random_connected(5, 1.5, rng)


class TestAccessors:
    def test_neighbors_sorted(self):
        topo = Topology.from_edges(5, [(2, 4), (2, 0), (2, 1)])
        np.testing.assert_array_equal(topo.neighbors(2), [0, 1, 4])

    def test_neighbors_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Topology.fully_connected(3).neighbors(5)

    def test_indicator_matches_adjacency(self):
        topo = Topology.ring(4)
        indicator = topo.indicator()
        assert indicator.dtype == np.float64
        np.testing.assert_array_equal(indicator > 0, topo.adjacency)

    def test_adjacency_readonly(self):
        topo = Topology.ring(4)
        with pytest.raises(ValueError):
            topo.adjacency[0, 1] = False

    def test_edges_are_canonical(self):
        topo = Topology.fully_connected(4)
        assert all(a < b for a, b in topo.edges())

    def test_to_networkx_roundtrip(self):
        topo = Topology.from_edges(5, [(0, 1), (1, 2), (3, 4), (2, 3)])
        graph = topo.to_networkx()
        assert graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 4

    def test_disconnected_detection(self):
        topo = Topology.from_edges(4, [(0, 1), (2, 3)])
        assert not topo.is_connected()
        with pytest.raises(ValueError, match="Assumption 1"):
            topo.require_connected()

    def test_require_connected_chains(self):
        topo = Topology.ring(4)
        assert topo.require_connected() is topo

    def test_equality_and_hash(self):
        a = Topology.ring(5)
        b = Topology.ring(5)
        c = Topology.fully_connected(5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_num_workers(self):
        assert Topology.fully_connected(7).num_workers == 7


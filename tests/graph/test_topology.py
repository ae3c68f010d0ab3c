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
        topo = Topology.star(5, center=2)
        assert topo.degree(2) == 4
        assert topo.degree(0) == 1

    def test_torus_grid_degrees(self):
        # 3x3 torus: every node has exactly 4 distinct neighbors.
        topo = Topology.torus(9)
        assert all(topo.degree(i) == 4 for i in range(9))
        assert topo.is_connected()

    def test_torus_two_length_dimension_collapses_wrap_edges(self):
        # 2x2 torus: the wrap-around edge coincides with the grid edge, so
        # the graph is a 4-cycle, not a multigraph.
        topo = Topology.torus(4)
        assert all(topo.degree(i) == 2 for i in range(4))

    def test_torus_uses_most_square_factorization(self):
        # 12 = 3x4 (not 2x6): interior nodes still have 4 distinct neighbors.
        topo = Topology.torus(12)
        assert all(topo.degree(i) == 4 for i in range(12))

    def test_torus_rejects_primes_and_tiny_counts(self):
        for bad in (2, 3, 5, 7):
            with pytest.raises(ValueError, match="torus"):
                Topology.torus(bad)

    def test_small_world_zero_rewire_is_the_ring_lattice(self):
        rng = np.random.default_rng(0)
        topo = Topology.small_world(8, 0.0, rng)
        assert all(topo.degree(i) == 4 for i in range(8))
        assert topo.has_edge(0, 1) and topo.has_edge(0, 2)

    def test_small_world_preserves_edge_count_under_rewiring(self):
        rng = np.random.default_rng(3)
        lattice = Topology.small_world(10, 0.0, np.random.default_rng(0))
        rewired = Topology.small_world(10, 0.7, rng)
        assert len(rewired.edges()) == len(lattice.edges())
        assert rewired.is_connected()

    def test_small_world_minimum_size(self):
        with pytest.raises(ValueError, match="at least 4"):
            Topology.small_world(3, 0.1, np.random.default_rng(0))

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


class TestEdgeEventsGrammar:
    """EdgeSchedule.from_string: the deterministic script axis."""

    def test_from_string_parses_episodes(self):
        from repro.graph import EdgeSchedule

        schedule = EdgeSchedule.from_string(4, "0-1@2:4;1-2@5")
        assert len(schedule) == 3  # fail+repair, then a permanent fail
        times = [event.time for event in schedule.events]
        assert times == [2.0, 4.0, 5.0]
        assert schedule.events[0].edge == (0, 1)
        assert schedule.events[2].edge == (1, 2)
        assert schedule.events[2].kind == "fail"

    def test_from_string_normalizes_whitespace_and_edge_order(self):
        from repro.graph import EdgeSchedule

        a = EdgeSchedule.from_string(4, " 1-0@2:4 ; 2-1@5 ")
        b = EdgeSchedule.from_string(4, "0-1@2:4;1-2@5")
        assert a == b

    def test_from_string_rejects_malformed_episodes(self):
        from repro.graph import EdgeSchedule

        with pytest.raises(ValueError, match="expected 'A-B@FAIL"):
            EdgeSchedule.from_string(4, "0-1")
        with pytest.raises(ValueError, match="bad edge_events episode"):
            EdgeSchedule.from_string(4, "0-x@2")
        with pytest.raises(ValueError, match="repair time"):
            EdgeSchedule.from_string(4, "0-1@4:2")
        with pytest.raises(ValueError, match="no episodes"):
            EdgeSchedule.from_string(4, " ; ")

    def test_from_string_inherits_schedule_validation(self):
        from repro.graph import EdgeSchedule

        with pytest.raises(ValueError, match="out of range"):
            EdgeSchedule.from_string(4, "0-9@2")
        with pytest.raises(ValueError, match="fails twice"):
            EdgeSchedule.from_string(4, "0-1@2;0-1@3")

    def test_edge_events_checked_by_building(self):
        """A sweep builds every (scenario, seed) at spec construction, so an
        edge script is checked against the graph each cell will run on."""
        from repro.experiments.sweeps import ScenarioSpec, SweepSpec

        def sweep(kind, workers, script, seeds=(0,), edge_failures=0):
            params = (("topology", kind), ("edge_events", script),
                      ("edge_failures", edge_failures))
            return SweepSpec(
                algorithms=("adpsgd",), seeds=seeds,
                scenarios=(ScenarioSpec("heterogeneous", workers, params),),
            )

        # Clean deterministic script on a ring: accepted.
        sweep("ring", 4, "0-1@2:4")
        # Empty script is a no-op regardless of the other axis.
        sweep("ring", 4, "", edge_failures=2)
        with pytest.raises(ValueError, match="mutually exclusive"):
            sweep("ring", 4, "0-1@2", edge_failures=1)
        # A script that flips a non-edge or disconnects the graph dies early.
        with pytest.raises(ValueError, match="does not contain"):
            sweep("ring", 5, "0-2@2")
        with pytest.raises(ValueError, match="disconnect"):
            sweep("ring", 4, "0-1@2;1-2@3")
        # Randomized families are checked against the graph drawn at each
        # seed: edge 0-2 exists in the random 8-worker graph at seeds 1 and
        # 6 of 0..7 only.
        for seed in range(8):
            if seed in (1, 6):
                sweep("random", 8, "0-2@2", seeds=(seed,))
            else:
                with pytest.raises(ValueError, match="does not contain"):
                    sweep("random", 8, "0-2@2", seeds=(seed,))
        with pytest.raises(ValueError, match="at seed 2: .*does not contain"):
            sweep("random", 8, "0-2@2", seeds=(1, 2, 6))
        with pytest.raises(ValueError, match="fails twice"):
            sweep("random", 8, "0-2@2;0-2@3", seeds=(1,))

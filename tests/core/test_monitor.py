"""Unit tests for the Network Monitor (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.monitor import NetworkMonitor
from repro.graph import Topology


def raw_times(full5, hetero_times5, missing=()):
    """Full measurement matrix with selected entries masked NaN."""
    raw = hetero_times5.astype(float).copy()
    raw[~full5.adjacency] = np.nan
    for i, m in missing:
        raw[i, m] = np.nan
    return raw


class TestCoverage:
    def test_full_coverage(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5)
        assert monitor.coverage(raw_times(full5, hetero_times5)) == 1.0

    def test_partial_coverage(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5)
        raw = raw_times(full5, hetero_times5, missing=[(0, 1), (0, 2)])
        assert monitor.coverage(raw) == pytest.approx(18 / 20)


class TestAssembleTimeMatrix:
    def test_complete_matrix_passes_through(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5)
        assembled = monitor.assemble_time_matrix(raw_times(full5, hetero_times5))
        off = full5.adjacency
        np.testing.assert_allclose(assembled[off], hetero_times5[off])

    def test_gap_filled_with_row_max(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5, min_coverage=0.5)
        raw = raw_times(full5, hetero_times5, missing=[(0, 1)])
        assembled = monitor.assemble_time_matrix(raw)
        # Worker 0's other links are all 2.0 -> conservative fill is 2.0.
        assert assembled[0, 1] == pytest.approx(2.0)

    def test_below_min_coverage_returns_none(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5, min_coverage=1.0)
        raw = raw_times(full5, hetero_times5, missing=[(0, 1)])
        assert monitor.assemble_time_matrix(raw) is None

    def test_worker_with_no_measurements_returns_none(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5, min_coverage=0.1)
        raw = raw_times(full5, hetero_times5)
        raw[2, :] = np.nan
        assert monitor.assemble_time_matrix(raw) is None

    def test_non_edges_zeroed(self, hetero_times5):
        topo = Topology.ring(5)
        monitor = NetworkMonitor(topo)
        raw = hetero_times5.astype(float).copy()
        raw[~topo.adjacency] = np.nan
        assembled = monitor.assemble_time_matrix(raw)
        off_edges = ~topo.adjacency & ~np.eye(5, dtype=bool)
        assert np.all(assembled[off_edges] == 0.0)

    def test_wrong_shape_rejected(self, full5):
        monitor = NetworkMonitor(full5)
        with pytest.raises(ValueError, match="time matrix"):
            monitor.assemble_time_matrix(np.zeros((3, 3)))


class TestTick:
    def test_publishes_policy_with_full_data(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5)
        result = monitor.tick(raw_times(full5, hetero_times5), alpha=0.1)
        assert result is not None
        assert monitor.stats.policies_published == 1
        assert monitor.last_result is result

    def test_skips_on_insufficient_data(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5, min_coverage=1.0)
        raw = raw_times(full5, hetero_times5, missing=[(0, 1)])
        assert monitor.tick(raw, alpha=0.1) is None
        assert monitor.stats.skipped_insufficient_data == 1

    def test_skips_on_infeasible_grid(self, full5, hetero_times5, monkeypatch):
        import repro.core.monitor as monitor_module
        from repro.core.policy import PolicyGenerationError

        def boom(*args, **kwargs):
            raise PolicyGenerationError("forced")

        monkeypatch.setattr(monitor_module, "generate_policy", boom)
        monitor = NetworkMonitor(full5)
        assert monitor.tick(raw_times(full5, hetero_times5), alpha=0.1) is None
        assert monitor.stats.skipped_infeasible == 1

    def test_tick_counter(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5)
        for _ in range(3):
            monitor.tick(raw_times(full5, hetero_times5), alpha=0.1)
        assert monitor.stats.ticks == 3

    def test_invalid_min_coverage(self, full5):
        with pytest.raises(ValueError, match="min_coverage"):
            NetworkMonitor(full5, min_coverage=0.0)

    @pytest.mark.parametrize("rounds", [{"outer_rounds": 0}, {"inner_rounds": 0}])
    def test_a_grid_without_points_rejected(self, full5, rounds):
        """Regression: it constructed and raised at the first tick's solve."""
        with pytest.raises(ValueError, match="must be >= 1"):
            NetworkMonitor(full5, **rounds)


class TestTickActiveSubset:
    def test_all_active_mask_equals_no_mask(self, full5, hetero_times5):
        monitor_a = NetworkMonitor(full5)
        monitor_b = NetworkMonitor(full5)
        times = raw_times(full5, hetero_times5)
        result_a = monitor_a.tick(times, alpha=0.1)
        result_b = monitor_b.tick(times, alpha=0.1, active=np.ones(5, dtype=bool))
        assert result_a is not None and result_b is not None
        np.testing.assert_allclose(result_a.policy, result_b.policy)
        assert result_a.rho == result_b.rho

    def test_policy_embedded_with_zero_rows_for_departed(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5)
        times = raw_times(full5, hetero_times5)
        active = np.array([True, True, True, True, False])
        result = monitor.tick(times, alpha=0.1, active=active)
        assert result is not None
        assert result.policy.shape == (5, 5)
        np.testing.assert_array_equal(result.policy[4], 0.0)
        np.testing.assert_array_equal(result.policy[:, 4], 0.0)
        for i in range(4):
            np.testing.assert_allclose(result.policy[i].sum(), 1.0)

    def test_fewer_than_two_active_skips(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5)
        active = np.array([True, False, False, False, False])
        result = monitor.tick(raw_times(full5, hetero_times5), alpha=0.1, active=active)
        assert result is None
        assert monitor.stats.skipped_insufficient_data == 1

    def test_disconnected_active_subgraph_skips(self, hetero_times5):
        # Path 0-1-2-3-4: removing worker 2 splits {0,1} from {3,4}.
        path = Topology.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        monitor = NetworkMonitor(path, min_coverage=0.1)
        times = np.where(path.adjacency, 1.0, np.nan)
        active = np.array([True, True, False, True, True])
        result = monitor.tick(times, alpha=0.1, active=active)
        assert result is None
        assert monitor.stats.skipped_disconnected == 1


class TestTickLiveAdjacency:
    """The time-varying topology path: tick() on a live-edge subgraph."""

    def test_full_adjacency_equals_no_adjacency(self, full5, hetero_times5):
        times = raw_times(full5, hetero_times5)
        result_a = NetworkMonitor(full5).tick(times, alpha=0.1)
        result_b = NetworkMonitor(full5).tick(
            times, alpha=0.1, adjacency=full5.adjacency
        )
        np.testing.assert_array_equal(result_a.policy, result_b.policy)
        assert result_a.rho == result_b.rho

    def test_policy_puts_zero_mass_on_failed_edges(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5, min_coverage=0.5)
        live = full5.adjacency.copy()
        live[0, 1] = live[1, 0] = False  # the fast link fails
        result = monitor.tick(
            raw_times(full5, hetero_times5), alpha=0.1, adjacency=live
        )
        assert result is not None
        assert result.policy[0, 1] == 0.0 and result.policy[1, 0] == 0.0
        for i in range(5):
            np.testing.assert_allclose(result.policy[i].sum(), 1.0)

    def test_live_adjacency_solves_the_subgraph_directly(self, full5, hetero_times5):
        """Solving with an adjacency override equals solving a monitor built
        on that frozen subgraph outright."""
        live = full5.adjacency.copy()
        live[0, 1] = live[1, 0] = False
        times = raw_times(full5, hetero_times5)
        masked_times = np.where(live, times, np.nan)
        overridden = NetworkMonitor(full5).tick(
            masked_times, alpha=0.1, adjacency=live
        )
        direct = NetworkMonitor(Topology(live)).tick(masked_times, alpha=0.1)
        np.testing.assert_array_equal(overridden.policy, direct.policy)
        assert overridden.rho == direct.rho

    def test_disconnected_live_graph_skips(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5, min_coverage=0.1)
        live = np.zeros((5, 5), dtype=bool)  # star 0-centered, minus nothing
        for i in range(1, 5):
            live[0, i] = live[i, 0] = True
        live[0, 4] = live[4, 0] = False  # worker 4 fully cut off
        result = monitor.tick(
            raw_times(full5, hetero_times5), alpha=0.1, adjacency=live
        )
        assert result is None
        assert monitor.stats.skipped_disconnected == 1

    def test_composes_with_active_mask(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5, min_coverage=0.5)
        live = full5.adjacency.copy()
        live[0, 1] = live[1, 0] = False
        active = np.array([True, True, True, True, False])
        result = monitor.tick(
            raw_times(full5, hetero_times5), alpha=0.1, active=active,
            adjacency=live,
        )
        assert result is not None
        assert result.policy[0, 1] == 0.0
        np.testing.assert_array_equal(result.policy[4], 0.0)

    def test_wrong_adjacency_shape_rejected(self, full5, hetero_times5):
        monitor = NetworkMonitor(full5)
        with pytest.raises(ValueError, match="adjacency"):
            monitor.tick(
                raw_times(full5, hetero_times5), alpha=0.1,
                adjacency=np.ones((4, 4), dtype=bool),
            )

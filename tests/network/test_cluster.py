"""Unit tests for repro.network.cluster."""

import numpy as np
import pytest

from repro.network.cluster import ClusterSpec, gbps_to_bytes_per_s


class TestGbpsConversion:
    def test_one_gbps(self):
        assert gbps_to_bytes_per_s(1.0) == pytest.approx(1.25e8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gbps_to_bytes_per_s(0.0)


class TestPlacement:
    def test_workers_numbered_server_by_server(self):
        spec = ClusterSpec(workers_per_server=(3, 3, 2))
        np.testing.assert_array_equal(spec.placement(), [0, 0, 0, 1, 1, 1, 2, 2])

    def test_counts(self):
        spec = ClusterSpec(workers_per_server=(4, 4))
        assert spec.num_workers == 8
        assert spec.placement().max() + 1 == 2

    def test_empty_server_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(workers_per_server=(3, 0))

    def test_single_worker_cluster_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            ClusterSpec(workers_per_server=(1,))


class TestLinkMatrices:
    def test_bandwidth_intra_vs_inter(self):
        spec = ClusterSpec(workers_per_server=(2, 2), intra_gbps=10.0, inter_gbps=1.0)
        bandwidth = spec.bandwidth_matrix()
        assert bandwidth[0, 1] == pytest.approx(1.25e9)  # intra
        assert bandwidth[0, 2] == pytest.approx(1.25e8)  # inter
        assert np.isinf(bandwidth[0, 0])

    def test_latency_matrix(self):
        spec = ClusterSpec(
            workers_per_server=(2, 1), intra_latency_s=1e-4, inter_latency_s=5e-4
        )
        latency = spec.latency_matrix()
        assert latency[0, 1] == pytest.approx(1e-4)
        assert latency[0, 2] == pytest.approx(5e-4)
        assert latency[1, 1] == 0.0

    def test_matrices_symmetric(self):
        spec = ClusterSpec(workers_per_server=(3, 2))
        np.testing.assert_array_equal(spec.bandwidth_matrix(), spec.bandwidth_matrix().T)
        np.testing.assert_array_equal(spec.latency_matrix(), spec.latency_matrix().T)


class TestPaperLayouts:
    @pytest.mark.parametrize(
        "workers,expected_servers", [(4, 2), (8, 3), (16, 4)]
    )
    def test_paper_heterogeneous_server_counts(self, workers, expected_servers):
        spec = ClusterSpec.paper_heterogeneous(workers)
        assert len(spec.workers_per_server) == expected_servers
        assert spec.num_workers == workers

    def test_paper_heterogeneous_other_counts(self):
        spec = ClusterSpec.paper_heterogeneous(6)
        assert spec.num_workers == 6
        assert len(spec.workers_per_server) >= 2

    def test_paper_homogeneous_single_server(self):
        spec = ClusterSpec.paper_homogeneous(8)
        assert len(spec.workers_per_server) == 1
        bandwidth = spec.bandwidth_matrix()
        off = ~np.eye(8, dtype=bool)
        assert np.all(bandwidth[off] == bandwidth[0, 1])  # uniform vswitch

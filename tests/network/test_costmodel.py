"""Unit tests for repro.network.costmodel."""

import pytest

from repro.network.cluster import ClusterSpec
from repro.network.costmodel import (
    MODEL_ZOO,
    CommunicationModel,
    ComputeModel,
    ModelCostProfile,
    get_cost_profile,
)
from repro.network.links import ClusterLinks


class TestModelZoo:
    def test_paper_parameter_counts(self):
        assert MODEL_ZOO["mobilenet"].param_count == 4_200_000
        assert MODEL_ZOO["resnet18"].param_count == 11_700_000
        assert MODEL_ZOO["resnet50"].param_count == 25_600_000
        assert MODEL_ZOO["vgg19"].param_count == 143_700_000
        assert MODEL_ZOO["googlenet"].param_count == 6_800_000

    def test_message_bytes_float32(self):
        profile = MODEL_ZOO["resnet18"]
        assert profile.message_bytes == 4 * profile.param_count

    def test_lookup_case_insensitive(self):
        assert get_cost_profile("VGG19") is MODEL_ZOO["vgg19"]

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="valid"):
            get_cost_profile("transformer")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ModelCostProfile("x", param_count=0, compute_time_s=0.1)
        with pytest.raises(ValueError):
            ModelCostProfile("x", param_count=10, compute_time_s=0.0)


class TestCommunicationModel:
    def make_comm(self):
        links = ClusterLinks(ClusterSpec((2, 2), intra_gbps=8.0, inter_gbps=1.0))
        return CommunicationModel(links)

    def test_comm_time_formula(self):
        comm = self.make_comm()
        nbytes = 1.25e8  # exactly one second at 1 Gbps
        expected = comm.links.latency(0, 2, 0.0) + 1.0
        assert comm.comm_time(0, 2, nbytes, 0.0) == pytest.approx(expected)

    def test_self_transfer_free(self):
        comm = self.make_comm()
        assert comm.comm_time(1, 1, 1e9, 0.0) == 0.0
        assert comm.begin_transfer(1, 1, 1e9, 0.0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="nbytes"):
            self.make_comm().comm_time(0, 1, -5, 0.0)

    def test_single_transfer_no_contention(self):
        comm = self.make_comm()
        base = comm.comm_time(0, 2, 1e8, 0.0)
        assert comm.begin_transfer(0, 2, 1e8, 0.0) == pytest.approx(base)
        comm.end_transfer(0, 2)

    def test_concurrent_outbound_flows_share_uplink(self):
        comm = self.make_comm()
        first = comm.begin_transfer(0, 2, 1e8, 0.0)
        second = comm.begin_transfer(1, 2, 1e8, 0.0)  # also pulls from 2
        assert second > first  # sender 2's uplink now carries two flows
        comm.end_transfer(0, 2)
        comm.end_transfer(1, 2)

    def test_duplex_directions_independent(self):
        comm = self.make_comm()
        down = comm.begin_transfer(0, 2, 1e8, 0.0)  # 0 downloads from 2
        up = comm.begin_transfer(2, 0, 1e8, 0.0)  # 2 downloads from 0
        assert up == pytest.approx(down)  # opposite directions do not contend
        comm.end_transfer(0, 2)
        comm.end_transfer(2, 0)

    def test_end_without_begin_raises(self):
        comm = self.make_comm()
        with pytest.raises(RuntimeError, match="matching begin_transfer"):
            comm.end_transfer(0, 1)

    def test_active_flows_accounting(self):
        comm = self.make_comm()
        comm.begin_transfer(0, 2, 1e6, 0.0)
        assert comm.active_flows(0) == 1
        assert comm.active_flows(2) == 1
        assert comm.active_flows(1) == 0
        comm.end_transfer(0, 2)
        assert comm.active_flows(0) == 0

    def test_intra_faster_than_inter(self):
        comm = self.make_comm()
        assert comm.comm_time(0, 1, 1e8, 0.0) < comm.comm_time(0, 2, 1e8, 0.0)


class TestComputeModel:
    def test_scales_linearly_with_batch(self):
        model = ComputeModel(get_cost_profile("resnet18"), 2)
        assert model.compute_time(0, 256) == pytest.approx(2 * model.compute_time(0, 128))

    def test_reference_batch_gives_profile_time(self):
        profile = get_cost_profile("vgg19")
        model = ComputeModel(profile, 1)
        assert model.compute_time(0, profile.reference_batch) == pytest.approx(
            profile.compute_time_s
        )

    def test_invalid_worker(self):
        model = ComputeModel(get_cost_profile("resnet18"), 2)
        with pytest.raises(ValueError, match="out of range"):
            model.compute_time(5, 128)

    def test_invalid_batch(self):
        model = ComputeModel(get_cost_profile("resnet18"), 2)
        with pytest.raises(ValueError, match="batch_size"):
            model.compute_time(0, 0)

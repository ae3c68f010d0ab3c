"""End-to-end shape tests: the paper's qualitative claims at small scale.

These use a *static* severe-slow-link network (deterministic, so the shape
assertions are stable) and check the orderings the paper reports rather
than absolute numbers.
"""

import numpy as np
import pytest

from repro import Scenario, Topology, TrainerConfig
from repro.experiments import make_workload, run_comparison, run_trainer
from repro.experiments.scenarios import homogeneous_scenario
from repro.network.cluster import ClusterSpec
from repro.network.links import TraceLinks


@pytest.fixture(scope="module")
def severe_scenario():
    """8 workers, 3 servers, with one inter-server link slowed 40x."""
    cluster = ClusterSpec.paper_heterogeneous(8)
    bandwidth = cluster.bandwidth_matrix()
    bandwidth[0, 3] = bandwidth[3, 0] = bandwidth[0, 3] / 40.0
    links = TraceLinks([(0.0, bandwidth)], cluster.latency_matrix())
    return Scenario(Topology.fully_connected(8), links)


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        "resnet18", "cifar10", num_workers=8, batch_size=128,
        num_samples=2048, seed=1,
    )


@pytest.fixture(scope="module")
def severe_results(severe_scenario, workload):
    config = TrainerConfig(max_sim_time=120.0, eval_interval_s=15.0, seed=5)
    return run_comparison(
        ["netmax", "adpsgd", "allreduce", "prague"],
        severe_scenario,
        workload,
        config,
        trainer_kwargs={"netmax": {"monitor_period_s": 20.0}},
    )


class TestHeterogeneousShape:
    def test_netmax_lowest_epoch_time_among_async(self, severe_results):
        netmax = severe_results["netmax"].costs.summary()["epoch_time"]
        adpsgd = severe_results["adpsgd"].costs.summary()["epoch_time"]
        assert netmax < adpsgd

    def test_computation_cost_equal_across_algorithms(self, severe_results):
        comps = [r.costs.summary()["computation_cost"] for r in severe_results.values()]
        assert max(comps) / min(comps) < 1.2

    def test_prague_suffers_most_from_slow_link(self, severe_results):
        prague = severe_results["prague"].costs.summary()["communication_cost"]
        netmax = severe_results["netmax"].costs.summary()["communication_cost"]
        assert prague > netmax

    def test_netmax_avoids_the_slow_link(self, severe_results):
        policy = severe_results["netmax"].extras.get("final_policy")
        assert policy is not None
        # Probability on the 40x-slowed (0,3) link should sit at/near its
        # floor, i.e. below uniform 1/7.
        assert policy[0, 3] < 1.0 / 7.0

    def test_all_reach_similar_accuracy(self, severe_results):
        accuracies = [
            r.history.best_accuracy() for r in severe_results.values()
        ]
        assert max(accuracies) - min(accuracies) < 0.25


class TestHomogeneousShape:
    @pytest.fixture(scope="class")
    def homo_results(self, workload):
        config = TrainerConfig(max_sim_time=60.0, eval_interval_s=10.0, seed=5)
        return run_comparison(
            ["netmax", "adpsgd", "allreduce", "prague"],
            homogeneous_scenario(8),
            workload,
            config,
        )

    def test_netmax_close_to_adpsgd(self, homo_results):
        """Paper Fig. 9: on homogeneous nets NetMax ~ AD-PSGD."""
        netmax = homo_results["netmax"].costs.summary()["epoch_time"]
        adpsgd = homo_results["adpsgd"].costs.summary()["epoch_time"]
        assert netmax == pytest.approx(adpsgd, rel=0.35)

    def test_sync_methods_costlier_than_async(self, homo_results):
        """Paper Fig. 6: Allreduce/Prague pay extra communication rounds."""
        sync_cost = min(
            homo_results["allreduce"].costs.summary()["communication_cost"],
            homo_results["prague"].costs.summary()["communication_cost"],
        )
        async_cost = max(
            homo_results["netmax"].costs.summary()["communication_cost"],
            homo_results["adpsgd"].costs.summary()["communication_cost"],
        )
        assert sync_cost > async_cost

    def test_homogeneous_comm_cheaper_than_heterogeneous(
        self, homo_results, severe_results
    ):
        """Paper: Fig. 6's communication costs are 'fairly lower' than Fig. 5's."""
        for name in ("netmax", "adpsgd"):
            homo = homo_results[name].costs.summary()["communication_cost"]
            hetero = severe_results[name].costs.summary()["communication_cost"]
            assert homo < hetero


class TestDeterminism:
    def test_full_run_reproducible(self, severe_scenario, workload):
        config = TrainerConfig(max_sim_time=30.0, eval_interval_s=10.0, seed=9)
        a = run_trainer("netmax", severe_scenario, workload, config)
        b = run_trainer("netmax", severe_scenario, workload, config)
        np.testing.assert_array_equal(a.final_params, b.final_params)
        assert a.sim_time == b.sim_time

    def test_different_seeds_differ(self, severe_scenario, workload):
        config_a = TrainerConfig(max_sim_time=30.0, eval_interval_s=10.0, seed=9)
        config_b = TrainerConfig(max_sim_time=30.0, eval_interval_s=10.0, seed=10)
        a = run_trainer("adpsgd", severe_scenario, workload, config_a)
        b = run_trainer("adpsgd", severe_scenario, workload, config_b)
        assert not np.array_equal(a.final_params, b.final_params)

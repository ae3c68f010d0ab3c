"""The Fig. 2 story end-to-end: fixed topologies get trapped, NetMax adapts.

A scripted trace keeps the intra-server link (0,1) fast for a brief warmup
-- long enough for SAPS to enshrine it in its fixed subgraph -- then slows
it 100x for the rest of the run. NetMax's monitor measures the change and
pushes the link's probability down to its floor; SAPS keeps gossiping over
it forever (worker 1's only subgraph neighbor is worker 0).
"""

import pytest

from repro import Scenario, Topology, TrainerConfig
from repro.experiments import make_workload, run_trainer
from repro.network.cluster import ClusterSpec
from repro.network.links import TraceLinks

WARMUP = 5.0
RUN_TIME = 240.0


@pytest.fixture(scope="module")
def trap_scenario():
    cluster = ClusterSpec.paper_heterogeneous(4)  # layout (2, 2)
    base = cluster.bandwidth_matrix()
    poisoned = base.copy()
    poisoned[0, 1] = poisoned[1, 0] = base[0, 1] / 100.0
    links = TraceLinks([(0.0, base), (WARMUP, poisoned)], cluster.latency_matrix())
    return Scenario(Topology.fully_connected(4), links)


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        "resnet18", "cifar10", num_workers=4, batch_size=128,
        num_samples=1024, seed=4,
    )


@pytest.fixture(scope="module")
def netmax_result(trap_scenario, workload):
    config = TrainerConfig(max_sim_time=RUN_TIME, eval_interval_s=30.0, seed=4)
    return run_trainer(
        "netmax", trap_scenario, workload, config,
        monitor_period_s=20.0, ema_beta=0.3,
    )


@pytest.fixture(scope="module")
def saps_result(trap_scenario, workload):
    config = TrainerConfig(max_sim_time=RUN_TIME, eval_interval_s=30.0, seed=4)
    return run_trainer("saps", trap_scenario, workload, config)


class TestMonitorAdaptation:
    def test_monitor_publishes_through_the_change(self, netmax_result):
        stats = netmax_result.extras["monitor_stats"]
        assert stats.policies_published >= 3

    def test_policy_pins_slow_link_to_floor(self, netmax_result):
        policy = netmax_result.extras["final_policy"]
        rho = netmax_result.extras["final_rho"]
        floor = 2 * 0.1 * rho  # alpha may have decayed; floor is an upper bound
        assert policy[0, 1] <= max(floor * 2.0, 0.10)
        # The fast inter links keep healthy mass in comparison.
        assert policy[0, 2] + policy[0, 3] > policy[0, 1]

    def test_saps_enshrined_the_poisoned_link(self, saps_result):
        assert (0, 1) in saps_result.extras["fixed_subgraph_edges"]

    def test_netmax_faster_than_trapped_saps(self, netmax_result, saps_result):
        assert (
            netmax_result.costs.summary()["epoch_time"]
            < saps_result.costs.summary()["epoch_time"]
        )

    def test_trapped_worker_progresses_more_under_netmax(
        self, netmax_result, saps_result
    ):
        """SAPS worker 1's only subgraph neighbor is worker 0 over the
        poisoned link, so its epoch count collapses; NetMax's worker 1 keeps
        moving via its other neighbors."""
        netmax_slowest = netmax_result.costs.epochs_completed.min()
        saps_slowest = saps_result.costs.epochs_completed.min()
        assert netmax_slowest > saps_slowest

"""Regression pins for NetMax's monitor-coverage behavior.

PR 1 found that ``min_coverage=1.0`` makes the monitor's first publication
hostage to the slowest unmeasured link (a coupon-collector tail measured in
slow-link round trips): on many seeds the monitor never published within
the run and NetMax sat on its uniform fallback, erasing its advantage.
``NetMaxTrainer`` therefore defaults ``monitor_min_coverage=0.9``. These
tests pin both the default and the cliff it protects against, so an
accidental revert fails loudly instead of silently degrading results.
"""

import inspect

import numpy as np

from repro.algorithms.base import TrainerConfig
from repro.algorithms.netmax import NetMaxTrainer
from repro.core.monitor import NetworkMonitor
from repro.experiments.scenarios import heterogeneous_scenario, make_workload
from repro.graph.topology import Topology


def make_trainer(**kwargs):
    scenario = heterogeneous_scenario(4, seed=0)
    workload = make_workload(
        "mobilenet", "mnist", num_workers=4, batch_size=32, num_samples=256, seed=0
    )
    config = TrainerConfig(max_sim_time=10.0, eval_interval_s=5.0, seed=0)
    return NetMaxTrainer(
        workload.make_tasks(),
        scenario.topology,
        scenario.links,
        workload.profile,
        config,
        **kwargs,
    )


class TestMinCoverageDefault:
    def test_constructor_default_is_0_9(self):
        """The signature default itself is pinned: changing it is a decision,
        not a drive-by."""
        signature = inspect.signature(NetMaxTrainer.__init__)
        assert signature.parameters["monitor_min_coverage"].default == 0.9

    def test_default_reaches_the_monitor(self):
        assert make_trainer().monitor.min_coverage == 0.9

    def test_override_still_respected(self):
        assert make_trainer(monitor_min_coverage=0.75).monitor.min_coverage == 0.75


class TestNeverPublishCliffAt1:
    """The behavior 0.9 protects against: at 1.0, one unprobed pair blocks
    publication forever (workers keep the uniform fallback)."""

    def probe_times(self, m=5, missing=((0, 4),)):
        topology = Topology.fully_connected(m)
        times = np.where(topology.adjacency, 1.0, np.nan)
        for a, b in missing:
            times[a, b] = np.nan
        return topology, times

    def test_single_missing_pair_blocks_at_full_coverage(self):
        topology, times = self.probe_times()
        monitor = NetworkMonitor(topology, min_coverage=1.0)
        for _ in range(3):  # stays blocked tick after tick
            assert monitor.tick(times, alpha=0.1) is None
        assert monitor.stats.policies_published == 0
        assert monitor.stats.skipped_insufficient_data == 3

    def test_same_matrix_publishes_at_0_9(self):
        topology, times = self.probe_times()
        monitor = NetworkMonitor(topology, min_coverage=0.9)
        result = monitor.tick(times, alpha=0.1)
        assert result is not None
        assert monitor.stats.policies_published == 1

    def test_trainer_at_1_0_never_adopts_on_sparse_coverage(self):
        """End-to-end shape of the cliff: with min_coverage forced back to
        1.0 and a monitor period short relative to slow links, the run ends
        with zero adopted policies while 0.9 adopts at least one."""
        strict = make_trainer(monitor_min_coverage=1.0, monitor_period_s=0.5)
        strict.run()
        relaxed = make_trainer(monitor_min_coverage=0.9, monitor_period_s=0.5)
        relaxed.run()
        assert relaxed.policies_adopted >= 1
        assert relaxed.monitor.stats.policies_published >= 1
        # The strict monitor may eventually publish once every pair has been
        # sampled; the regression is about the *gap* -- it must publish no
        # earlier than the relaxed one and skip more ticks waiting.
        assert (
            strict.monitor.stats.skipped_insufficient_data
            >= relaxed.monitor.stats.skipped_insufficient_data
        )
        assert strict.policies_adopted <= relaxed.policies_adopted


class TestPolicyScopeWiring:
    """The neighborhood-local solve mode through the trainer: defaults
    pinned, kwargs reach the monitor, and local mode on a full graph with
    wide hops reproduces the global run bit for bit."""

    def test_defaults_pinned(self):
        signature = inspect.signature(NetMaxTrainer.__init__)
        assert signature.parameters["policy_scope"].default == "global"
        assert signature.parameters["policy_local_hops"].default == 2
        trainer = make_trainer()
        assert trainer.monitor.policy_scope == "global"

    def test_kwargs_reach_the_monitor(self):
        trainer = make_trainer(policy_scope="local", policy_local_hops=3)
        assert trainer.monitor.policy_scope == "local"
        assert trainer.monitor.local_hops == 3

    def _run_quadratic(self, **kwargs):
        from repro.experiments.scenarios import make_quadratic_workload

        num_workers = 6
        scenario = heterogeneous_scenario(num_workers, dynamic=False, seed=0)
        tasks, _, profile = make_quadratic_workload(num_workers, seed=0)
        config = TrainerConfig(
            max_sim_time=120.0, eval_interval_s=60.0, seed=0,
            max_epochs=500.0, iterations_per_epoch_hint=50,
        )
        trainer = NetMaxTrainer(
            tasks, scenario.topology, scenario.links, profile, config,
            monitor_period_s=30.0, policy_outer_rounds=4,
            policy_inner_rounds=4, **kwargs,
        )
        result = trainer.run()
        return trainer, result

    def test_local_full_graph_bit_identical_to_global(self):
        """On the full graph with hops >= diameter every ego solve is the
        global solve (shared cache signature), so the entire training
        trajectory -- policies, rho staging, final parameters -- matches."""
        global_trainer, global_result = self._run_quadratic()
        local_trainer, local_result = self._run_quadratic(
            policy_scope="local", policy_local_hops=6
        )
        assert global_trainer.monitor.stats.policies_published >= 1
        np.testing.assert_array_equal(
            global_result.final_params, local_result.final_params
        )
        assert global_result.history.train_losses == local_result.history.train_losses
        assert global_result.sim_time == local_result.sim_time
        assert global_trainer.policies_adopted == local_trainer.policies_adopted

    def test_local_mode_stages_per_worker_rho(self):
        trainer, _ = self._run_quadratic(
            policy_scope="local", policy_local_hops=1
        )
        result = trainer.monitor.last_result
        assert result is not None
        assert result.rho_per_worker is not None
        for i, state in enumerate(trainer.workers):
            assert state.rho == result.rho_per_worker[i]

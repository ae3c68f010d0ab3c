"""Behavioral tests for every training algorithm.

Shared across trainers: runs complete, losses decrease on an easy problem,
histories are deterministic in the seed, and cost accounting is coherent.
Then per-algorithm specifics (synchrony, policy adoption, PS bias, fixed
subgraph, group formation).
"""

import numpy as np
import pytest

from repro.algorithms import (
    TrainerConfig,
    create_trainer,
    trainer_names,
)
from repro.algorithms.prague import PragueTrainer
from repro.algorithms.saps import initially_fast_subgraph
from repro.core.monitor import NetworkMonitor
from repro.experiments import heterogeneous_scenario, make_workload, run_trainer
from repro.ml.optim import PlateauDecayLR, StepDecayLR
from repro.network.costmodel import CommunicationModel

ALL_ALGORITHMS = trainer_names()


@pytest.fixture(scope="module")
def scenario():
    return heterogeneous_scenario(num_workers=4, seed=1)


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        "mobilenet", "mnist", num_workers=4, batch_size=32, num_samples=512, seed=1
    )


def quick_config(**kwargs):
    defaults = dict(max_sim_time=30.0, eval_interval_s=5.0, seed=3)
    defaults.update(kwargs)
    return TrainerConfig(**defaults)


class TestAllTrainersShared:
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_run_completes_and_loss_decreases(self, name, scenario, workload):
        result = run_trainer(name, scenario, workload, quick_config())
        arrays = result.history.as_arrays()
        assert result.global_steps > 0
        assert arrays["train_loss"][-1] < arrays["train_loss"][0]

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_deterministic_given_seed(self, name, scenario, workload):
        a = run_trainer(name, scenario, workload, quick_config())
        b = run_trainer(name, scenario, workload, quick_config())
        np.testing.assert_array_equal(
            a.history.as_arrays()["train_loss"], b.history.as_arrays()["train_loss"]
        )
        assert a.global_steps == b.global_steps

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_cost_accounting_coherent(self, name, scenario, workload):
        result = run_trainer(name, scenario, workload, quick_config())
        summary = result.costs.summary()
        assert summary["epoch_time"] > 0
        assert summary["computation_cost"] > 0
        assert summary["communication_cost"] >= 0
        assert summary["epoch_time"] == pytest.approx(
            summary["computation_cost"] + summary["communication_cost"]
        )

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_max_epochs_stops_early(self, name, scenario, workload):
        config = quick_config(max_sim_time=500.0, max_epochs=2.0)
        result = run_trainer(name, scenario, workload, config)
        assert result.sim_time < 500.0


class TestRegistry:
    def test_all_expected_names(self):
        assert set(ALL_ALGORITHMS) == {
            "netmax", "adpsgd", "allreduce", "prague",
            "ps-syn", "ps-asyn", "saps", "adpsgd-monitor",
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="valid"):
            create_trainer("sgd-ultra", None, None, None, None, None)

    def test_case_insensitive(self, scenario, workload):
        result = run_trainer("NetMax", scenario, workload, quick_config())
        assert result.algorithm == "netmax"


class TestRemovedKeywords:
    @pytest.mark.parametrize("target, keyword, value", [
        ("adpsgd", "flow_sharing", False),
        ("comm", "flow_sharing", False),
        ("netmax", "monitor_unprobed", "optimistic"),
        ("monitor", "unprobed", "optimistic"),
        ("adpsgd", "mixing_weight", 0.3),
        ("adpsgd-monitor", "mixing_weight", 0.3),
        ("saps", "extra_edges", 2),
        ("subgraph", "extra_edges", 2),
        ("prague", "group_size", 2),
        ("prague", "contention_factor", 0.0),
        ("plateau", "factor", 0.5),
        ("plateau", "patience", 2),
        ("plateau", "min_delta", 0.0),
        ("plateau", "min_lr", 0.0),
        ("step", "factor", 0.5),
    ])
    def test_removed_keyword_is_rejected(
        self, scenario, workload, target, keyword, value
    ):
        """These values are constants (the paper fixes them, or no caller
        set them): passing one is an error, not a knob that is ignored."""
        builders = {
            "comm": lambda **kw: CommunicationModel(scenario.links, **kw),
            "monitor": lambda **kw: NetworkMonitor(scenario.topology, **kw),
            "subgraph": lambda **kw: initially_fast_subgraph(
                scenario.topology, scenario.links.bandwidth_matrix(0.0), **kw
            ),
            "plateau": lambda **kw: PlateauDecayLR(0.1, **kw),
            "step": lambda **kw: StepDecayLR(0.1, **kw),
        }
        build = builders.get(target) or (lambda **kw: create_trainer(
            target, workload.make_tasks(), scenario.topology, scenario.links,
            workload.profile, quick_config(), **kw,
        ))
        with pytest.raises(TypeError, match=f"'{keyword}'"):
            build(**{keyword: value})


class TestNetMaxSpecifics:
    def test_monitor_publishes_and_workers_adopt(self, scenario, workload):
        result = run_trainer(
            "netmax", scenario, workload, quick_config(), monitor_period_s=5.0
        )
        stats = result.extras["monitor_stats"]
        assert stats.ticks >= 3
        assert stats.policies_published >= 1
        assert result.extras["policies_adopted"] >= 1
        assert "final_policy" in result.extras
        np.testing.assert_allclose(result.extras["final_policy"].sum(axis=1), 1.0)

    def test_non_adaptive_never_publishes(self, scenario, workload):
        result = run_trainer(
            "netmax", scenario, workload, quick_config(), adaptive=False
        )
        assert result.extras["monitor_stats"].ticks == 0
        assert result.extras["policies_adopted"] == 0

    def test_serial_slower_than_overlap(self):
        # Without NIC contention C + N strictly dominates max(C, N). Two
        # workers keep every endpoint at one flow, so fair sharing (which
        # would charge overlap's concurrent pulls more) never applies.
        scenario = heterogeneous_scenario(num_workers=2, seed=1)
        workload = make_workload(
            "mobilenet", "mnist", num_workers=2, batch_size=32,
            num_samples=512, seed=1,
        )
        overlap = run_trainer(
            "netmax", scenario, workload, quick_config(), adaptive=False
        )
        serial = run_trainer(
            "netmax", scenario, workload, quick_config(),
            adaptive=False, overlap=False,
        )
        assert (
            serial.costs.summary()["epoch_time"]
            > overlap.costs.summary()["epoch_time"]
        )

    def test_no_clipping_under_feasible_policies(self, scenario, workload):
        result = run_trainer("netmax", scenario, workload, quick_config())
        assert result.extras["clip_events"] == 0


class TestAllreduceSpecifics:
    def test_all_replicas_identical(self, scenario, workload):
        result = run_trainer("allreduce", scenario, workload, quick_config())
        params = result.final_params
        for worker in range(1, params.shape[0]):
            np.testing.assert_allclose(params[worker], params[0])

    def test_synchronous_equal_iteration_counts(self, scenario, workload):
        result = run_trainer("allreduce", scenario, workload, quick_config())
        assert result.global_steps % 4 == 0


class TestPSSpecifics:
    def test_ps_syn_replicas_identical(self, scenario, workload):
        result = run_trainer("ps-syn", scenario, workload, quick_config())
        for worker in range(1, 4):
            np.testing.assert_allclose(result.final_params[worker], result.final_params[0])

    def test_ps_asyn_colocated_workers_iterate_more(self, workload):
        # 4 workers over 2 servers; PS anchored at worker 0's server. Workers
        # on server 0 exchange over the fast local bus.
        scenario = heterogeneous_scenario(num_workers=4, seed=1, dynamic=False)
        trainer = create_trainer(
            "ps-asyn",
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            quick_config(),
            test_data=workload.test_data,
        )
        result = trainer.run()
        iterations = [trainer.tasks[i].iterations for i in range(4)]
        # Workers 0,1 share the PS server (layout (2,2)); they should iterate
        # strictly more than the remote workers 2,3.
        assert min(iterations[0], iterations[1]) > max(iterations[2], iterations[3])
        assert result.global_steps == sum(iterations)


class TestPragueSpecifics:
    def test_groups_formed(self, scenario, workload):
        trainer = create_trainer(
            "prague",
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            quick_config(),
        )
        trainer.run()
        assert trainer.groups_formed > 0
        # Groups may still be in flight when the time budget cuts the run.
        assert 0 <= trainer._active_groups <= trainer.groups_formed

    def test_contention_slows_groups(self, scenario, workload, monkeypatch):
        monkeypatch.setattr(PragueTrainer, "contention", 0.0)
        calm = run_trainer("prague", scenario, workload, quick_config())
        monkeypatch.setattr(PragueTrainer, "contention", 2.0)
        congested = run_trainer("prague", scenario, workload, quick_config())
        assert (
            congested.costs.summary()["communication_cost"]
            >= calm.costs.summary()["communication_cost"]
        )


class TestSAPSSpecifics:
    def test_fixed_subgraph_is_spanning_and_fast(self, workload):
        scenario = heterogeneous_scenario(num_workers=4, seed=1, dynamic=False)
        trainer = create_trainer(
            "saps",
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            quick_config(),
        )
        sub = trainer.fixed_subgraph
        assert sub.is_connected()
        assert len(sub.edges()) == 3  # spanning tree on 4 workers


class TestADPSGDMonitorSpecifics:
    def test_uses_monitor_but_half_weights(self, scenario, workload):
        result = run_trainer(
            "adpsgd-monitor", scenario, workload, quick_config(), monitor_period_s=5.0
        )
        assert result.extras["monitor_stats"].policies_published >= 1


class TestADPSGDSpecifics:
    def test_workers_reach_consensus_neighborhood(self, scenario, workload):
        result = run_trainer("adpsgd", scenario, workload, quick_config())
        # Gossip averaging keeps replicas close: consensus distance should be
        # tiny relative to parameter magnitude.
        scale = float(np.mean(np.sum(result.final_params**2, axis=1)))
        assert result.consensus_distance() < 0.05 * scale

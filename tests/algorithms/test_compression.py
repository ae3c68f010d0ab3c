"""Trainer-level behavior of the compression axis.

Two promises matter here:

1. **Bit-identity of the default path.** A trainer handed the ``none`` op
   (or no op at all) runs the exact pre-compression code: identical final
   parameters, identical event schedule, zero draws from the compression
   RNG streams. This is the pin that lets the compression axis ship
   without a CACHE_VERSION bump.
2. **Lossy ops change both ledgers.** A lossy op shrinks the bytes the
   cost model charges (more iterations per simulated second) AND perturbs
   gossip pulls through the accuracy-impact hook -- every gossip trainer
   routes pulls through ``DecentralizedTrainer.pulled_params``.
"""

import numpy as np
import pytest

from repro.algorithms import TrainerConfig, create_trainer
from repro.experiments import (
    build_scenario,
    heterogeneous_scenario,
    make_workload,
    run_trainer,
)
from repro.network.compression import TopK, make_compression_op

GOSSIP_ALGORITHMS = ("adpsgd", "saps", "netmax", "adpsgd-monitor")


@pytest.fixture(scope="module")
def scenario():
    return heterogeneous_scenario(num_workers=4, seed=1)


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        "mobilenet", "mnist", num_workers=4, batch_size=32, num_samples=512, seed=1
    )


def quick_config(**kwargs):
    defaults = dict(max_sim_time=20.0, eval_interval_s=5.0, seed=3)
    defaults.update(kwargs)
    return TrainerConfig(**defaults)


class TestNoneBitIdentity:
    @pytest.mark.parametrize("name", GOSSIP_ALGORITHMS)
    def test_none_op_is_bit_identical_to_no_op(self, name, scenario, workload):
        plain = run_trainer(name, scenario, workload, quick_config())
        none = run_trainer(
            name, scenario, workload, quick_config(),
            compression=make_compression_op("none"),
        )
        np.testing.assert_array_equal(plain.final_params, none.final_params)
        np.testing.assert_array_equal(
            plain.history.as_arrays()["train_loss"],
            none.history.as_arrays()["train_loss"],
        )
        assert plain.global_steps == none.global_steps
        assert plain.sim_time == none.sim_time

    def test_none_op_normalized_away(self, scenario, workload):
        """The constructor folds the identity op to None: no compression
        state, no RNG streams allocated."""
        trainer = create_trainer(
            "adpsgd", workload.make_tasks(), scenario.topology, scenario.links,
            workload.profile, quick_config(),
            compression=make_compression_op("none"),
        )
        assert trainer.compression is None
        assert trainer._compression_rngs is None
        assert trainer.message_bytes == workload.profile.message_bytes


class TestLossyOps:
    def test_topk_shrinks_bytes_and_changes_trajectory(self, scenario, workload):
        plain = run_trainer("adpsgd", scenario, workload, quick_config())
        compressed = run_trainer(
            "adpsgd", scenario, workload, quick_config(),
            compression=make_compression_op("topk", 0.1),
        )
        # Smaller messages -> cheaper transfers -> more iterations in the
        # same simulated horizon.
        assert compressed.global_steps > plain.global_steps
        assert not np.array_equal(plain.final_params, compressed.final_params)

    @pytest.mark.parametrize("name", GOSSIP_ALGORITHMS)
    def test_every_gossip_trainer_trains_under_compression(
        self, name, scenario, workload
    ):
        result = run_trainer(
            name, scenario, workload, quick_config(),
            compression=make_compression_op("topk", 0.25),
        )
        arrays = result.history.as_arrays()
        assert result.global_steps > 0
        assert arrays["train_loss"][-1] < arrays["train_loss"][0]

    def test_trainer_bytes_come_from_the_comm_model(self, scenario, workload):
        op = make_compression_op("qsgd", 8)
        trainer = create_trainer(
            "adpsgd", workload.make_tasks(), scenario.topology, scenario.links,
            workload.profile, quick_config(),
            compression=op,
        )
        assert trainer.message_bytes == op.compressed_bytes(workload.profile)
        assert trainer.message_bytes == trainer.comm.payload_bytes(workload.profile)
        assert trainer.message_bytes < workload.profile.message_bytes

    def test_synchronous_trainer_gets_bytes_effect_only(self, scenario, workload):
        """Sync baselines accept the op (smaller rounds) without the gossip
        noise hook -- they have no pulls to perturb."""
        plain = run_trainer("allreduce", scenario, workload, quick_config())
        compressed = run_trainer(
            "allreduce", scenario, workload, quick_config(),
            compression=make_compression_op("topk", 0.1),
        )
        assert compressed.global_steps > plain.global_steps

    def test_compression_noise_is_seed_deterministic(self, scenario, workload):
        kwargs = dict(compression=make_compression_op("topk", 0.1))
        a = run_trainer("adpsgd", scenario, workload, quick_config(), **kwargs)
        b = run_trainer("adpsgd", scenario, workload, quick_config(), **kwargs)
        np.testing.assert_array_equal(a.final_params, b.final_params)
        assert a.global_steps == b.global_steps


class TestScenarioThreading:
    def test_harness_threads_scenario_compression(self, workload):
        """build_scenario(compression=...) reaches the trainer without any
        explicit trainer_kwargs."""
        scenario = build_scenario(
            "heterogeneous", 4, 1, compression="topk", compression_param=0.1
        )
        assert scenario.compression == TopK(k=0.1)
        result = run_trainer("adpsgd", scenario, workload, quick_config())
        baseline = run_trainer(
            "adpsgd", build_scenario("heterogeneous", 4, 1), workload,
            quick_config(),
        )
        assert result.global_steps > baseline.global_steps

    def test_batched_backend_rejects_compression(self, scenario, workload):
        from repro.simulation.batched import BatchedSimulator

        trainer = create_trainer(
            "adpsgd", workload.make_tasks(), scenario.topology, scenario.links,
            workload.profile, quick_config(),
            compression=make_compression_op("topk", 0.1),
        )
        with pytest.raises(ValueError, match="compression"):
            BatchedSimulator([trainer])

    def test_batch_key_excludes_compressed_cells(self):
        from repro.experiments.executors import _batch_key
        from repro.experiments.sweeps import (
            RunSpec, ScenarioSpec, SweepSpec, WorkloadSpec,
        )

        def cell_for(scenario):
            return SweepSpec(
                algorithms=("adpsgd",), seeds=(0,), scenarios=(scenario,),
                workload=WorkloadSpec(num_samples=256),
                run=RunSpec(max_sim_time=5.0),
            ).cells()[0]

        plain = cell_for(ScenarioSpec("heterogeneous", 4))
        compressed = cell_for(ScenarioSpec(
            "heterogeneous", 4,
            params=(("compression", "topk"), ("compression_param", 0.1)),
        ))
        assert _batch_key(plain) is not None
        assert _batch_key(compressed) is None

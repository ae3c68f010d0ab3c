"""Bit-identity suite for the batched structure-of-arrays sweep engine.

The :class:`~repro.simulation.batched.BatchedSimulator` re-implements the
gossip hot path (ADPSGD/SAPS) as vectorized lockstep rounds; its one
correctness claim is ``batched == inline`` **bit for bit** -- same
evaluation history, same per-worker cost counters, same final parameters,
same event count -- for every trainer that opts in via
``supports_batched``. These tests pin that claim for the cells the engine
vectorizes (sampler-less diagonal quadratics), for the cells it hands
back to their own per-event ``trainer.run()`` (everything else, e.g.
MLPs), mixed batches, and every scheduling variant (overlap, serial pull,
dynamic links, epoch-capped stops, non-constant LR schedules).
"""

import numpy as np
import pytest

from repro.algorithms.base import TrainerConfig
from repro.algorithms.registry import create_trainer
from repro.experiments.scenarios import (
    build_scenario,
    heterogeneous_scenario,
    make_quadratic_workload,
    make_workload,
)
from repro.experiments.sweeps import RunSpec, ScenarioSpec, SweepCell, WorkloadSpec
from repro.ml.optim import StepDecayLR
from repro.simulation.batched import BatchedSimulator

# The per-worker epoch cost counters are private to EpochCostTracker; the
# bit-identity contract covers them explicitly (record_iteration order and
# boundary crossings must match the inline engine exactly).
COST_FIELDS = (
    "_duration",
    "_compute",
    "_iterations",
    "_duration_at_boundary",
    "_compute_at_boundary",
    "_epochs",
)


def assert_bit_identical(inline, batched, label=""):
    """Every observable of a TrainingResult, compared exactly (no tolerance)."""
    assert inline.algorithm == batched.algorithm, label
    for attr in vars(inline.history):
        expected = np.asarray(getattr(inline.history, attr))
        actual = np.asarray(getattr(batched.history, attr))
        assert np.array_equal(expected, actual, equal_nan=True), (label, attr)
    for attr in COST_FIELDS:
        expected = getattr(inline.costs, attr)
        actual = getattr(batched.costs, attr)
        assert np.array_equal(expected, actual), (label, attr)
    assert np.array_equal(inline.final_params, batched.final_params), label
    assert inline.sim_time == batched.sim_time, label
    assert inline.global_steps == batched.global_steps, label
    assert repr(inline.extras) == repr(batched.extras), label


def quadratic_trainer(
    algorithm,
    num_workers,
    *,
    dynamic=False,
    noise_std=0.0,
    scenario_seed=1,
    workload_seed=2,
    config=None,
    **trainer_kwargs,
):
    """A fresh gossip trainer on the synthetic quadratic workload (a cell
    the engine vectorizes)."""
    scenario = heterogeneous_scenario(
        num_workers=num_workers,
        dynamic=dynamic,
        slowdown_period_s=7.0,
        seed=scenario_seed,
    )
    tasks, _, profile = make_quadratic_workload(
        num_workers=num_workers, noise_std=noise_std, seed=workload_seed
    )
    if config is None:
        config = TrainerConfig(
            max_sim_time=30.0,
            eval_interval_s=5.0,
            seed=3,
            iterations_per_epoch_hint=20,
        )
    return create_trainer(
        algorithm,
        tasks,
        scenario.topology,
        scenario.links,
        profile,
        config,
        **trainer_kwargs,
    )


@pytest.fixture(scope="module")
def mlp_workload():
    """The golden-regression workload (mobilenet-profile MLP on MNIST)."""
    return make_workload(
        "mobilenet", "mnist", num_workers=4, batch_size=32, num_samples=256,
        seed=0,
    )


def mlp_trainer(mlp_workload, algorithm, topology=None):
    """A fresh golden-scenario trainer (sampler-backed: not vectorizable,
    so the engine runs it per event)."""
    params = {} if topology is None else {"topology": topology}
    scenario = build_scenario("heterogeneous", 4, seed=0, **params)
    config = TrainerConfig(max_sim_time=10.0, eval_interval_s=5.0, seed=0)
    return create_trainer(
        algorithm,
        mlp_workload.make_tasks(),
        scenario.topology,
        scenario.links,
        mlp_workload.profile,
        config,
        test_data=mlp_workload.test_data,
    )


def run_both(build, labels):
    """Run each cell inline, rebuild fresh, batch them, compare pairwise."""
    inline = [build(i).run() for i in range(len(labels))]
    batched = BatchedSimulator([build(i) for i in range(len(labels))]).run()
    for expected, actual, label in zip(inline, batched, labels):
        assert_bit_identical(expected, actual, label)


class TestFastPathBitIdentity:
    """Cells the engine advances in vectorized lockstep."""

    def test_static_links_noise_free(self):
        run_both(
            lambda i: quadratic_trainer("adpsgd", 8),
            ["adpsgd static noise-free"],
        )

    def test_distinct_seeds_share_one_batch(self):
        run_both(
            lambda i: quadratic_trainer("adpsgd", 8, workload_seed=10 + i),
            [f"seed {i}" for i in range(3)],
        )

    def test_dynamic_links_and_gradient_noise(self):
        """Dynamic *links* (not topology) and noisy gradients stay batched:
        interval-cached pair times, per-model noise draws in event order."""
        run_both(
            lambda i: quadratic_trainer(
                "saps", 8, dynamic=True, noise_std=0.05, scenario_seed=4,
                workload_seed=5,
            ),
            ["saps dynamic noisy"],
        )

    def test_serial_pull_when_overlap_disabled(self):
        run_both(
            lambda i: quadratic_trainer(
                "adpsgd", 4, noise_std=0.02, workload_seed=7, overlap=False
            ),
            ["adpsgd serial"],
        )

    def test_step_decay_schedule_and_max_epochs_stop(self):
        """Epoch-dependent LR (queried per event) plus the stop-condition
        path: cells must stop on the exact event the inline engine stops on."""
        config = TrainerConfig(
            max_sim_time=200.0,
            eval_interval_s=10.0,
            seed=0,
            max_epochs=3.0,
            iterations_per_epoch_hint=10,
            lr_schedule=StepDecayLR(0.05, milestones=(1.0, 2.0)),
        )
        run_both(
            lambda i: quadratic_trainer(
                "adpsgd", 4, dynamic=True, scenario_seed=9, workload_seed=3,
                config=config,
            ),
            ["adpsgd stepdecay max-epochs"],
        )


class TestGeneralPathBitIdentity:
    """Sampler-backed MLP cells: the engine calls their own ``run()``."""

    def test_golden_scenario_adpsgd_and_saps(self, mlp_workload):
        run_both(
            lambda i: mlp_trainer(mlp_workload, ["adpsgd", "saps"][i]),
            ["golden adpsgd", "golden saps"],
        )

    def test_golden_ring_topology(self, mlp_workload):
        run_both(
            lambda i: mlp_trainer(mlp_workload, "adpsgd", topology="ring"),
            ["golden adpsgd ring"],
        )

    def test_mixed_fast_and_general_batch(self, mlp_workload):
        """One engine, one vectorized quadratic cell and one per-event
        sampler-backed cell: results come back in input order."""
        builders = [
            lambda: quadratic_trainer("adpsgd", 4),
            lambda: mlp_trainer(mlp_workload, "adpsgd"),
        ]
        run_both(
            lambda i: builders[i](),
            ["mixed fast cell", "mixed general cell"],
        )

    def test_construction_leaves_a_per_event_cell_untouched(self, mlp_workload):
        """The engine mirrors only what it vectorizes: until ``run()``, an
        MLP trainer's selection streams, samplers and simulator are exactly
        as constructed (nothing drawn, nothing scheduled, nothing begun)."""

        def stream_states(trainer):
            return [
                rng.bit_generator.state
                for rng in (
                    trainer.rng,
                    *trainer._selection_rngs,
                    *(task.sampler._rng for task in trainer.tasks),
                )
            ]

        trainer = mlp_trainer(mlp_workload, "adpsgd")
        before = stream_states(trainer)
        quadratic = quadratic_trainer("adpsgd", 4)
        engine = BatchedSimulator([quadratic, trainer])
        assert stream_states(trainer) == before
        assert trainer.sim.pending == 0
        assert trainer.sim.events_processed == 0
        assert trainer.sim.now == 0.0
        assert not any(trainer.comm._inbound) and not any(trainer.comm._outbound)
        assert all(task.iterations == 0 for task in trainer.tasks)
        inline = mlp_trainer(mlp_workload, "adpsgd").run()
        assert_bit_identical(inline, engine.run()[1], "untouched until run()")
        # The lockstep loop counted only the quadratic cell's events; the
        # per-event cell reports through its own simulator.
        assert trainer.sim.events_processed > 0
        assert engine.events_processed == quadratic.sim.events_processed


class TestValidation:
    def test_needs_at_least_one_trainer(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchedSimulator([])

    def test_rejects_unsupported_trainer(self):
        scenario = heterogeneous_scenario(num_workers=4, dynamic=False, seed=1)
        tasks, _, profile = make_quadratic_workload(num_workers=4, seed=2)
        trainer = create_trainer(
            "allreduce", tasks, scenario.topology, scenario.links, profile,
            TrainerConfig(max_sim_time=5.0, seed=0),
        )
        with pytest.raises(ValueError, match="does not support batched"):
            BatchedSimulator([trainer])

    def test_rejects_mixed_worker_counts(self):
        with pytest.raises(ValueError, match="share a worker count"):
            BatchedSimulator(
                [quadratic_trainer("adpsgd", 4), quadratic_trainer("adpsgd", 8)]
            )

    def test_rejects_already_run_trainer(self):
        trainer = quadratic_trainer("adpsgd", 4)
        trainer.run()
        with pytest.raises(ValueError, match="freshly constructed"):
            BatchedSimulator([trainer])

    def test_rejects_churn(self):
        cell = SweepCell(
            algorithm="adpsgd",
            seed=0,
            scenario=ScenarioSpec("churn", 4),
            workload=WorkloadSpec(num_samples=128),
            run=RunSpec(max_sim_time=5.0),
        )
        with pytest.raises(ValueError, match="churn"):
            BatchedSimulator([cell.build_trainer()])

    def test_rejects_dynamic_edges(self):
        cell = SweepCell(
            algorithm="adpsgd",
            seed=0,
            scenario=ScenarioSpec(
                "heterogeneous", 4, params=(("edge_failures", 2),)
            ),
            workload=WorkloadSpec(num_samples=128),
            run=RunSpec(max_sim_time=5.0),
        )
        with pytest.raises(ValueError, match="time-varying"):
            BatchedSimulator([cell.build_trainer()])

    def test_run_is_single_shot(self):
        engine = BatchedSimulator([quadratic_trainer("adpsgd", 4)])
        engine.run()
        with pytest.raises(RuntimeError, match="only be called once"):
            engine.run()

    def test_events_processed_matches_inline(self):
        """The engine reports its event count back onto each trainer's
        simulator clock (advance_to), so telemetry stays truthful."""
        inline = quadratic_trainer("adpsgd", 4)
        inline.run()
        batched = quadratic_trainer("adpsgd", 4)
        engine = BatchedSimulator([batched])
        engine.run()
        assert engine.events_processed == inline.sim.events_processed
        assert batched.sim.events_processed == inline.sim.events_processed
        assert batched.sim.now == inline.sim.now

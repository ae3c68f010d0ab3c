"""Unit tests for the comparison harness."""

import pickle

import numpy as np
import pytest

from repro.algorithms.base import TrainerConfig
from repro.algorithms.registry import trainer_names
from repro.experiments.harness import run_comparison, run_trainer, time_to_loss_speedups
from repro.experiments.scenarios import heterogeneous_scenario, make_workload
from repro.simulation.records import EpochCostTracker, TrainingHistory, TrainingResult


@pytest.fixture(scope="module")
def setup():
    scenario = heterogeneous_scenario(num_workers=4, seed=2)
    workload = make_workload(
        "mobilenet", "mnist", num_workers=4, batch_size=32, num_samples=512, seed=2
    )
    config = TrainerConfig(max_sim_time=20.0, eval_interval_s=5.0, seed=2)
    return scenario, workload, config


class TestRunTrainer:
    def test_basic_run(self, setup):
        scenario, workload, config = setup
        result = run_trainer("adpsgd", scenario, workload, config)
        assert result.algorithm == "adpsgd"
        assert len(result.history) > 0

    def test_worker_count_mismatch_rejected(self, setup):
        scenario, _, config = setup
        workload = make_workload(num_workers=6, num_samples=512, seed=0)
        with pytest.raises(ValueError, match="workers"):
            run_trainer("adpsgd", scenario, workload, config)

    def test_kwargs_forwarded(self, setup):
        scenario, workload, config = setup
        result = run_trainer("netmax", scenario, workload, config, adaptive=False)
        assert result.extras["policies_adopted"] == 0


class TestRunComparison:
    def test_all_algorithms_present(self, setup):
        scenario, workload, config = setup
        results = run_comparison(["adpsgd", "allreduce"], scenario, workload, config)
        assert list(results) == ["adpsgd", "allreduce"]

    def test_every_run_is_its_solo_run(self, setup):
        """One seeding rule: each algorithm's result in a comparison is
        bit-identical to running it alone (no shared mutable state, no
        per-position sampler streams)."""
        scenario, workload, config = setup
        names = trainer_names()
        paired = run_comparison(names, scenario, workload, config)
        for name in names:
            solo = run_trainer(name, scenario, workload, config)
            assert pickle.dumps(paired[name]) == pickle.dumps(solo), name

    def test_per_algorithm_kwargs(self, setup):
        scenario, workload, config = setup
        results = run_comparison(
            ["netmax"], scenario, workload, config,
            trainer_kwargs={"netmax": {"adaptive": False}},
        )
        assert results["netmax"].extras["policies_adopted"] == 0


def fake_result(losses, times):
    history = TrainingHistory()
    for t, loss in zip(times, losses):
        history.add(t, 0, 0.0, loss)
    return TrainingResult(
        algorithm="fake",
        history=history,
        costs=EpochCostTracker(1),
        final_params=np.zeros((1, 2)),
        sim_time=times[-1],
        global_steps=1,
    )


class TestSpeedups:
    def test_explicit_target(self):
        results = {
            "fast": fake_result([2.0, 0.5], [0.0, 10.0]),
            "slow": fake_result([2.0, 0.5], [0.0, 40.0]),
        }
        speedups = time_to_loss_speedups(results, "slow", target_loss=0.5)
        assert speedups["fast"] == pytest.approx(4.0)
        assert speedups["slow"] == pytest.approx(1.0)

    def test_default_target_is_worst_final_loss(self):
        results = {
            "a": fake_result([2.0, 0.2], [0.0, 10.0]),
            "b": fake_result([2.0, 0.8], [0.0, 30.0]),  # worst final = 0.8
        }
        speedups = time_to_loss_speedups(results, "b")
        # 'a' reaches 0.8 somewhere before its 0.2 point -> finite speedup.
        assert speedups["a"] >= 1.0

    def test_unreached_target_is_nan(self):
        results = {
            "a": fake_result([2.0, 1.5], [0.0, 10.0]),
            "b": fake_result([2.0, 0.1], [0.0, 10.0]),
        }
        speedups = time_to_loss_speedups(results, "b", target_loss=0.5)
        assert np.isnan(speedups["a"])

    def test_unknown_reference_rejected(self):
        with pytest.raises(KeyError, match="reference"):
            time_to_loss_speedups({"a": fake_result([1.0], [0.0])}, "zzz")

"""Seed-determinism suite: same config + seed => bit-identical results.

Every random stream of a run must derive from the run's own seed and
nothing else. These tests pin the guarantees the sweep engine (and any
caching of results) depends on:

- repeated runs are bit-identical;
- evaluation setup (test data present or absent, larger or smaller) never
  perturbs training randomness;
- the flow-sharing flag draws no randomness of its own.
"""

import numpy as np
import pytest

from repro.algorithms.base import TrainerConfig
from repro.algorithms.registry import create_trainer
from repro.experiments.scenarios import heterogeneous_scenario, make_workload


@pytest.fixture(scope="module")
def setup():
    scenario = heterogeneous_scenario(num_workers=4, seed=3)
    workload = make_workload(
        "mobilenet", "mnist", num_workers=4, batch_size=32,
        num_samples=1600, seed=3,
    )
    config = TrainerConfig(max_sim_time=20.0, eval_interval_s=5.0, seed=3,
                           eval_max_samples=64)
    return scenario, workload, config


def run_once(setup, algorithm, test_data="default", **kwargs):
    scenario, workload, config = setup
    if test_data == "default":
        test_data = workload.test_data
    trainer = create_trainer(
        algorithm,
        workload.make_tasks(),
        scenario.topology,
        scenario.links,
        workload.profile,
        config,
        test_data=test_data,
        **kwargs,
    )
    return trainer.run()


def assert_identical_training(a, b, check_accuracy=True):
    arrays_a, arrays_b = a.history.as_arrays(), b.history.as_arrays()
    for column in arrays_a:
        if column == "test_accuracy" and not check_accuracy:
            continue
        np.testing.assert_array_equal(arrays_a[column], arrays_b[column],
                                      err_msg=f"column {column!r} diverged")
    np.testing.assert_array_equal(a.final_params, b.final_params)
    assert a.sim_time == b.sim_time
    assert a.global_steps == b.global_steps


@pytest.mark.parametrize("algorithm", ["netmax", "adpsgd"])
class TestRepeatedRuns:
    def test_bit_identical_across_runs(self, setup, algorithm):
        first = run_once(setup, algorithm)
        second = run_once(setup, algorithm)
        assert_identical_training(first, second)

    def test_training_invariant_to_test_data(self, setup, algorithm):
        """Providing test data may not perturb any training stream."""
        with_test = run_once(setup, algorithm)
        without = run_once(setup, algorithm, test_data=None)
        assert_identical_training(with_test, without, check_accuracy=False)
        assert np.all(np.isnan(without.history.as_arrays()["test_accuracy"]))

    def test_training_invariant_to_test_data_size(self, setup, algorithm):
        """Shrinking the test set (still above the cap) changes nothing."""
        scenario, workload, config = setup
        features, labels = workload.test_data
        full = run_once(setup, algorithm)
        trimmed = run_once(setup, algorithm,
                           test_data=(features[:100], labels[:100]))
        assert_identical_training(full, trimmed, check_accuracy=False)

    def test_flow_sharing_flag_draws_no_randomness(self, algorithm, setup):
        """With 2 workers no endpoint ever carries two concurrent flows, so
        toggling flow sharing must leave the run bit-identical -- the flag
        gates a formula, never an RNG draw."""
        scenario = heterogeneous_scenario(num_workers=2, seed=3)
        workload = make_workload(
            "mobilenet", "mnist", num_workers=2, batch_size=32,
            num_samples=800, seed=3,
        )
        config = TrainerConfig(max_sim_time=20.0, eval_interval_s=5.0, seed=3,
                               eval_max_samples=64)
        small = (scenario, workload, config)
        shared = run_once(small, algorithm, flow_sharing=True)
        unshared = run_once(small, algorithm, flow_sharing=False)
        assert_identical_training(shared, unshared)


class TestNoDuplicateFinalEval:
    def test_stop_at_eval_event_does_not_double_log(self, setup):
        """A run halting right after an evaluation must not append a second
        history point at the same virtual time (it would also double-feed
        PlateauDecayLR.observe_loss, biasing plateau detection)."""
        scenario, workload, config = setup
        stopped = create_trainer(
            "adpsgd",
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config.with_overrides(max_events=1),  # exactly the t=0 evaluation
            test_data=workload.test_data,
        )
        result = stopped.run()
        assert len(result.history) == 1
        assert result.history.times == [0.0]

    def test_final_eval_still_appended_when_time_advanced(self, setup):
        result = run_once(setup, "adpsgd")
        times = result.history.times
        assert times[-1] == pytest.approx(20.0)
        assert len(times) == len(set(times))

"""The shared bulk-synchronous round (:mod:`repro.algorithms.bulksync`).

Two claims, the synchronous counterpart of ``test_gossip_scaffold.py``:

1. **The scaffold is sufficient.** A toy trainer that defines *only*
   ``_exchange_time`` inherits the whole round: every member computes, the
   round costs the slowest compute plus the exchange, all replicas end each
   round on the same parameters, and churned rounds renormalize.
2. **The scaffold is the only round.** Allreduce-SGD and PS-syn define no
   ``__init__`` / ``_setup`` / ``_round`` of their own.
"""

import numpy as np
import pytest

from repro.algorithms.allreduce import AllreduceTrainer
from repro.algorithms.base import TrainerConfig
from repro.algorithms.bulksync import BulkSynchronousTrainer
from repro.algorithms.param_server import PSSynTrainer
from repro.experiments.scenarios import heterogeneous_scenario, make_quadratic_workload
from repro.simulation.churn import ChurnSchedule

M = 4
# The quadratic workload's (jitter-free) gradient computation time.
COMPUTE_S = 0.15
EXCHANGE_S = 0.25


class FixedExchange(BulkSynchronousTrainer):
    """The one hook and nothing else: every exchange costs the same."""

    name = "toy-bulksync"

    def _exchange_time(self, time, members):
        self.rounds.append((time, tuple(members)))
        return EXCHANGE_S


def build(trainer_cls=FixedExchange, **kwargs):
    scenario = heterogeneous_scenario(M, dynamic=False, seed=0)
    tasks, _, profile = make_quadratic_workload(M, dim=6, seed=0)
    config = TrainerConfig(max_sim_time=10.0, eval_interval_s=5.0, seed=0)
    trainer = trainer_cls(
        tasks, scenario.topology, scenario.links, profile, config, **kwargs
    )
    trainer.rounds = []
    return trainer


class TestOneHookIsEnough:
    def test_the_hook_is_required(self):
        with pytest.raises(TypeError, match="abstract"):
            build(BulkSynchronousTrainer)

    def test_rounds_cost_slowest_compute_plus_exchange(self):
        trainer = build()
        result = trainer.run()
        assert result.history.train_losses[-1] < result.history.train_losses[0]
        starts = [time for time, _ in trainer.rounds]
        assert len(starts) > 10
        assert np.diff(starts) == pytest.approx(COMPUTE_S + EXCHANGE_S)
        assert all(members == tuple(range(M)) for _, members in trainer.rounds)
        # One logical model: every replica holds the trainer's parameters.
        for task in trainer.tasks:
            np.testing.assert_array_equal(
                task.model.get_params(), trainer._global_params
            )

    def test_churned_rounds_run_over_the_active_members(self):
        churn = ChurnSchedule.single(M, worker=2, leave_at=2.0, rejoin_at=6.0)
        trainer = build(churn=churn)
        trainer.run()
        sizes = {members for _, members in trainer.rounds}
        assert sizes == {(0, 1, 2, 3), (0, 1, 3)}
        for time, members in trainer.rounds:
            assert (2 in members) == (not 2.0 <= time < 6.0)
        # The rejoiner synced to the group model at its first round back.
        np.testing.assert_array_equal(
            trainer.tasks[2].model.get_params(), trainer._global_params
        )


class TestOneRoundOnly:
    @pytest.mark.parametrize("trainer_cls", [AllreduceTrainer, PSSynTrainer])
    def test_round_methods_resolve_to_the_scaffold(self, trainer_cls):
        assert issubclass(trainer_cls, BulkSynchronousTrainer)
        for method in ("__init__", "_setup", "_round"):
            assert method not in vars(trainer_cls)
            assert getattr(trainer_cls, method) is getattr(
                BulkSynchronousTrainer, method
            ), f"{trainer_cls.__name__} forks {method}"
        assert trainer_cls._exchange_time is not BulkSynchronousTrainer._exchange_time
        assert trainer_cls.supports_churn

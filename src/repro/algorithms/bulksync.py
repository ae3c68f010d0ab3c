"""One bulk-synchronous round: the loop Allreduce-SGD and PS-syn both run.

The synchronous counterpart of :mod:`repro.algorithms.gossip`. Every
participating worker computes a gradient on its own minibatch at the shared
parameters, one exchange averages the gradients, and all replicas apply the
same update; the round takes ``max_i C_i`` plus the exchange.
:class:`BulkSynchronousTrainer` is that round, written down once; a
concrete trainer supplies one hook, :meth:`~BulkSynchronousTrainer._exchange_time`
-- what the exchange costs on the network (a ring all-reduce, a
push/pull through the parameter server's NIC).

Under churn the round degrades member by member
(:meth:`~repro.algorithms.base.DecentralizedTrainer.round_participants`):
membership is the active set at round start, the gradient mean renormalizes
over the members, departed replicas freeze, and a rejoiner is re-admitted
at its next round -- where it first syncs to the group model
(bulk-synchronous training keeps one logical model; gradients are always
taken at the shared parameters).
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from repro.algorithms.base import DecentralizedTrainer
from repro.ml.optim import SGDState

__all__ = ["BulkSynchronousTrainer"]


class BulkSynchronousTrainer(DecentralizedTrainer):
    """Global rounds over one logical model; subclasses price the exchange."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # One logical global model (replicated onto every member each round),
        # held by the trainer and not by any worker task: under churn any
        # replica may be frozen mid-run. A single optimizer keeps momentum
        # attached to it, so churned rounds cannot fork the momentum state.
        self._optimizer = SGDState(self.config.sgd, self.tasks[0].model.dim)
        self._global_params = self.tasks[0].model.get_params()

    @abc.abstractmethod
    def _exchange_time(self, time: float, members: list[int]) -> float:
        """Duration of one gradient exchange over ``members`` at ``time``."""

    def _setup(self) -> None:
        self.sim.schedule_at(0.0, self._round)

    def _round(self) -> None:
        members = self.round_participants()
        lr = self.current_lr()
        computes = [self.compute_time(i) for i in members]
        duration = max(computes) + self._exchange_time(self.sim.now, members)

        grads = []
        for i in members:
            if self.churn is not None:
                # Re-admitted rejoiners sync to the group model before
                # computing; without churn every replica already holds it
                # (skipping the per-member parameter copy on the hot path).
                self.tasks[i].model.set_params(self._global_params)
            _, grad = self.tasks[i].sample_loss_and_grad()
            grads.append(grad)
        mean_grad = np.mean(grads, axis=0)
        self._global_params = self._optimizer.step(self._global_params, mean_grad, lr)
        for i in members:
            self.tasks[i].model.set_params(self._global_params)
        for i, compute in zip(members, computes):
            self.record_iteration(i, compute, duration)

        next_time = self.sim.now + duration
        if next_time < self.config.max_sim_time:
            self.sim.schedule_at(next_time, self._round)

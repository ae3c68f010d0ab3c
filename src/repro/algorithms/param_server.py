"""Parameter-server baselines (Section V-G).

The PS holds the single global model on the machine of an *anchor* worker
(worker 0's server). Two variants:

- **PS-syn**: bulk-synchronous rounds. All workers push gradients, the PS
  averages and updates, everyone pulls the new model. The PS NIC is an
  incast bottleneck: the exchange is limited by
  ``max(total bytes / NIC bandwidth, slowest individual transfer)``.
- **PS-asyn**: each worker independently computes a gradient, ships it, and
  pulls the fresh model; the PS applies updates on arrival. Concurrent
  transfers share per-link bandwidth. Workers co-located with the PS
  iterate much faster than remote ones -- reproducing the paper's
  observation that the PS model "enhances the information from the faster
  nodes and weakens the information from the slower nodes" (Fig. 14a's low
  convergence rate for PS-asyn).

The PS itself is a *service* on the anchor's machine, so it keeps running
even while the anchor worker is churned out. PS-syn uses round-based churn
(membership fixed at round start, gradient mean renormalized over the
members, rejoiners pull the current global model at their next round);
PS-asyn parks a departed worker's loop and discards its in-flight push --
the PS never applies a gradient from a worker that already departed.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.algorithms.base import DecentralizedTrainer
from repro.algorithms.bulksync import BulkSynchronousTrainer
from repro.ml.optim import SGDState

__all__ = ["PSSynTrainer", "PSAsynTrainer"]


class _ParameterServerMixin:
    """Shared PS link-speed math; the PS sits on the anchor worker's server."""

    ps_anchor = 0

    def ps_bandwidth(self, worker: int, time: float) -> float:
        """Bandwidth between the PS and ``worker``."""
        if worker != self.ps_anchor:
            return self.comm.links.bandwidth(self.ps_anchor, worker, time)
        # The anchor reaches the PS over the local bus: as fast as its best link.
        others = [w for w in range(self.num_workers) if w != self.ps_anchor]
        return max(self.comm.links.bandwidth(self.ps_anchor, w, time) for w in others)

    def ps_latency(self, worker: int, time: float) -> float:
        if worker != self.ps_anchor:
            return self.comm.links.latency(self.ps_anchor, worker, time)
        return 0.0

    def ps_nic_bandwidth(self, time: float) -> float:
        """The PS machine's NIC capacity: its fastest attached link."""
        return max(self.ps_bandwidth(w, time) for w in range(self.num_workers))


class PSSynTrainer(_ParameterServerMixin, BulkSynchronousTrainer):
    """Synchronous parameter server."""

    name = "ps-syn"

    def exchange_time(self, time: float, members: list[int] | None = None) -> float:
        """One full push-gradients + pull-model synchronous exchange."""
        if members is None:
            members = list(range(self.num_workers))
        size = self.message_bytes
        slowest = max(
            size / self.ps_bandwidth(w, time) + self.ps_latency(w, time)
            for w in members
        )
        incast = len(members) * size / self.ps_nic_bandwidth(time)
        # Push phase + pull phase, each bounded by the worse of incast
        # serialization at the PS NIC and the slowest individual link.
        return 2.0 * max(incast, slowest)

    _exchange_time = exchange_time


class PSAsynTrainer(_ParameterServerMixin, DecentralizedTrainer):
    """Asynchronous parameter server (Hogwild-style application order)."""

    name = "ps-asyn"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ps_params = self.tasks[0].model.get_params()
        self._ps_optimizer = SGDState(self.config.sgd, self.tasks[0].model.dim)
        self._in_flight = 0

    def _setup(self) -> None:
        for i in range(self.num_workers):
            self._start_iteration(i)

    def _on_worker_join(self, worker: int) -> None:
        # The rejoined worker restarts its loop; its first completed exchange
        # pulls the then-current global model. Any pre-departure continuation
        # still in flight was invalidated by the epoch bump at the leave.
        self._start_iteration(worker)

    def _start_iteration(self, worker: int) -> None:
        if not self._active[worker]:
            return
        epoch = self._churn_epoch[worker]
        compute = self.compute_time(worker)
        self.sim.schedule_in(compute, partial(self._compute_done, worker, compute, epoch))

    def _compute_done(self, worker: int, compute: float, epoch: int = 0) -> None:
        if epoch != self._churn_epoch[worker]:
            return  # departed during the computation: the loop parks
        _, grad = self.tasks[worker].sample_loss_and_grad()
        self._in_flight += 1
        time = self.sim.now
        share = self.ps_bandwidth(worker, time) / self._in_flight
        exchange = 2.0 * (self.message_bytes / share + self.ps_latency(worker, time))
        self.sim.schedule_in(
            exchange,
            partial(self._exchange_done, worker, grad, compute, compute + exchange, epoch),
        )

    def _exchange_done(
        self, worker: int, grad: np.ndarray, compute: float, duration: float,
        epoch: int = 0,
    ) -> None:
        # The flow releases its bandwidth share whether or not the push
        # lands -- the bytes were in the network either way.
        self._in_flight -= 1
        if epoch != self._churn_epoch[worker]:
            return  # departed mid-exchange: the gradient is discarded
        # The PS applies the (possibly stale) gradient on arrival, then the
        # worker adopts the fresh global model.
        self._ps_params = self._ps_optimizer.step(self._ps_params, grad, self.current_lr())
        self.tasks[worker].model.set_params(self._ps_params)
        self.record_round((worker,))
        self.record_iteration(worker, compute, duration)
        self._start_iteration(worker)

"""One gossip iteration: the per-event worker loop every gossip trainer runs.

The paper presents AD-PSGD as NetMax with a uniform ``P`` and a fixed
averaging weight (Algorithm 2; Section III-D), and Fig. 7's serial/parallel
x uniform/adaptive ablation treats the rest of the worker loop as common.
:class:`GossipTrainer` is that common part, written down once: a worker
picks a peer, computes a gradient while (or before) pulling the peer's
model, applies an update, and starts over -- with the churn and
time-varying-edge rules (parked loops, stale-epoch continuations, dead-peer
fallbacks) that keep transfers off departed workers and failed edges.

A concrete trainer supplies two hooks and nothing else about the loop:

- :meth:`GossipTrainer._select_peer` -- who to pull from, and the weight
  the update will give that pull (fixed at selection time);
- :meth:`GossipTrainer._apply_update` -- what one finished iteration does
  to the worker's model.

Hooks and loop alike learn whether a peer can be gossiped with through the
base class's :meth:`~repro.algorithms.base.DecentralizedTrainer.reachable`
(peer active and edge live) or its row form ``reachable_peers``, never from
the graph itself: a selector must return a peer that is reachable at
selection time (or the worker), and the loop asks again before it starts a
serial pull or mixes in one that was in flight across a churn transition
or an edge flip.

Per worker, the loop draws randomness only in peer selection and issues its
simulator ``schedule_*`` calls in a fixed order (sequence numbers are the
event queue's tie-breaks); the golden-regression suite pins both.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import Any

import numpy as np

from repro.algorithms.base import DecentralizedTrainer

__all__ = ["GossipTrainer"]


class GossipTrainer(DecentralizedTrainer):
    """Asynchronous pull-gossip loop; subclasses choose peers and updates.

    Extra args:
        overlap: overlap compute and communication (default True): an
            iteration takes ``max(C, N)``. ``False`` is Fig. 7's serial
            ablation -- the pull starts only after the gradient
            computation finishes, ``C + N``.

    Under churn, a departed worker's loop parks until its rejoin, and a
    worker with no reachable peer (``_select_peer`` returned the worker
    itself) runs compute-only iterations until one returns.
    """

    supports_dynamic_edges = True

    def __init__(self, *args: Any, overlap: bool = True, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.overlap = overlap

    # -- the two hooks ---------------------------------------------------------

    @abc.abstractmethod
    def _select_peer(self, worker: int) -> tuple[int, float]:
        """Pick ``worker``'s gossip partner for its next iteration.

        Returns ``(peer, weight)``. ``peer == worker`` means a compute-only
        iteration. ``weight`` is handed back to :meth:`_apply_update`
        unchanged: whatever the update needs from selection time must be
        read here, because churn or an edge flip may change the selection
        state while the pull is in flight.
        """

    @abc.abstractmethod
    def _apply_update(
        self,
        worker: int,
        peer: int,
        weight: float,
        grad: np.ndarray,
        lr: float,
        duration: float,
    ) -> None:
        """Apply one finished iteration to ``worker``'s model.

        ``grad`` is the local gradient at the worker's current (pre-update)
        parameters, ``lr`` the rate read just before it was drawn, and
        ``peer == worker`` when there is nothing to mix in (self-selection,
        or the peer departed / its edge failed mid-flight). Pulls must read
        the peer through :meth:`pulled_params`, the compression hook.
        """

    # -- the loop --------------------------------------------------------------

    def _setup(self) -> None:
        for worker in range(self.num_workers):
            self._start_iteration(worker)

    def _on_worker_join(self, worker: int) -> None:
        # The rejoined worker resumes from its frozen model state; its loop
        # restarts here. Any pre-departure continuation still in flight was
        # invalidated by the epoch bump at the leave, so this is the only
        # live loop for the worker.
        self._start_iteration(worker)

    def _start_iteration(self, worker: int) -> None:
        if not self._active[worker]:
            return
        epoch = self._churn_epoch[worker]
        peer, weight = self._select_peer(worker)
        compute = self.compute_time(worker)
        if peer == worker:
            self.sim.schedule_in(
                compute,
                partial(
                    self._complete_iteration, worker, peer, compute, compute,
                    weight, epoch,
                ),
            )
        elif self.overlap:
            network = self.start_transfer(worker, peer)
            self.sim.schedule_in(network, partial(self.comm.end_transfer, worker, peer))
            duration = max(compute, network)
            self.sim.schedule_in(
                duration,
                partial(
                    self._complete_iteration, worker, peer, compute, duration,
                    weight, epoch,
                ),
            )
        else:
            self.sim.schedule_in(
                compute,
                partial(self._serial_pull, worker, peer, compute, weight, epoch),
            )

    def _serial_pull(
        self, worker: int, peer: int, compute: float, weight: float, epoch: int
    ) -> None:
        if epoch != self._churn_epoch[worker]:
            return  # the worker departed during the computation: stale loop
        if not self.reachable(worker, peer):
            # The chosen peer departed -- or the edge to it failed -- during
            # the gradient computation; fall back to a compute-only
            # completion rather than pull over a dead link.
            self._complete_iteration(worker, worker, compute, compute, weight, epoch)
            return
        network = self.start_transfer(worker, peer)
        self.sim.schedule_in(network, partial(self.comm.end_transfer, worker, peer))
        duration = compute + network
        self.sim.schedule_in(
            network,
            partial(
                self._complete_iteration, worker, peer, compute, duration,
                weight, epoch,
            ),
        )

    def _complete_iteration(
        self,
        worker: int,
        peer: int,
        compute: float,
        duration: float,
        weight: float,
        epoch: int,
    ) -> None:
        if epoch != self._churn_epoch[worker]:
            # Scheduled before the worker's departure: the work is discarded
            # and the loop is NOT rescheduled -- the rejoin (with a fresh
            # epoch) owns the one live loop.
            return
        lr = self.current_lr()
        _, grad = self.sample_loss_and_grad(worker)
        if peer != worker and not self.reachable(worker, peer):
            # Peer departed -- or its edge failed -- while the transfer was
            # in the air: drop the pull and book the iteration as
            # compute-only (updates never incorporate state delivered over
            # a dead endpoint or link).
            peer = worker
        self._apply_update(worker, peer, weight, grad, lr, duration)
        self.record_iteration(worker, compute, duration)
        self._start_iteration(worker)

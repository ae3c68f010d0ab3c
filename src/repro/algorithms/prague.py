"""Prague baseline [Luo et al., ASPLOS 2020]: randomized partial all-reduce.

Workers compute gradients asynchronously; as they become ready they are
collected into groups of ``group_size`` (3), and each group performs a
*partial all-reduce* that averages the members' (gradient-updated) models.
Group operations from different groups run concurrently and compete for
bandwidth -- the paper singles out precisely this contention, plus the
link-speed-agnostic grouping, as the reason Prague shows the highest
communication cost in Fig. 5:

    "The concurrent executions of partial-allreduce of different groups
    compete for the limited bandwidth capacity, resulting in network
    congestion. Moreover, the partial-allreduce operation is agnostic to
    the link speed."

Both effects are modeled: the group's ring time is governed by its slowest
internal link, and each concurrently running group inflates it by half
(a multiplicative contention factor that grows with the number of groups).

Churn semantics are group-based (the group is Prague's "round"): a departed
worker's compute loop parks and its queued gradient is pruned from the
pending pool; a member that departs while its group's partial-allreduce is
in flight is dropped at completion (the survivors average over themselves
only -- no aggregate ever includes a departed worker's contribution); and
the effective group size shrinks to the active-worker count so the
survivors keep making progress even when fewer than ``group_size`` workers
remain. Rejoiners restart their compute loop and fold back into grouping.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.algorithms.allreduce import ring_allreduce_time
from repro.algorithms.base import DecentralizedTrainer
from repro.ml.optim import SGDState

__all__ = ["PragueTrainer"]


class PragueTrainer(DecentralizedTrainer):
    """Randomized partial-allreduce training."""

    name = "prague"
    # Workers per partial-allreduce group (clamped to the active-worker
    # count when fewer are up).
    group_size = 3
    # Each additional concurrently-running group inflates communication
    # time by this fraction.
    contention = 0.5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._optimizers = [
            SGDState(self.config.sgd, task.model.dim) for task in self.tasks
        ]
        # (worker, grad, C_i, churn_epoch) waiting to be grouped.
        self._pending: list[tuple[int, np.ndarray, float, int]] = []
        self._active_groups = 0
        self.groups_formed = 0

    def _setup(self) -> None:
        for i in range(self.num_workers):
            self._start_compute(i)

    # -- churn hooks ----------------------------------------------------------

    def _on_worker_leave(self, worker: int) -> None:
        # A leaver's queued gradient must not be grouped later; pruning may
        # also shrink the effective group size enough for the survivors in
        # the pending pool to form a group right now.
        self._prune_pending()
        self._form_ready_groups()

    def _on_worker_join(self, worker: int) -> None:
        # Restart the compute loop from the frozen replica; the epoch bump
        # at the leave invalidated any pre-departure continuation.
        self._start_compute(worker)

    def _prune_pending(self) -> None:
        # Epoch equality alone detects staleness: entries are only appended
        # while their worker is active, and the epoch bumps exactly at each
        # leave, so a matching epoch implies the worker never left since.
        self._pending = [
            entry for entry in self._pending
            if entry[3] == self._churn_epoch[entry[0]]
        ]

    def _effective_group_size(self) -> int:
        """Group size, shrunk so a churned-down cluster keeps grouping."""
        return min(self.group_size, len(self.active_workers()))

    def _form_ready_groups(self) -> None:
        size = self._effective_group_size()
        if size < 1:
            return
        while len(self._pending) >= size:
            members = self._pending[:size]
            self._pending = self._pending[size:]
            self._form_group(members)

    # -- the async compute/group loop -----------------------------------------

    def _start_compute(self, worker: int) -> None:
        if not self._active[worker]:
            return
        epoch = self._churn_epoch[worker]
        compute = self.compute_time(worker)
        self.sim.schedule_in(compute, partial(self._compute_done, worker, compute, epoch))

    def _compute_done(self, worker: int, compute: float, epoch: int = 0) -> None:
        if epoch != self._churn_epoch[worker]:
            return  # departed during the computation: the loop parks
        _, grad = self.sample_loss_and_grad(worker)
        # The pool holds no stale entries here: _on_worker_leave prunes at
        # the only moment an entry can go stale.
        self._pending.append((worker, grad, compute, epoch))
        self._form_ready_groups()

    def _form_group(self, members: list[tuple[int, np.ndarray, float, int]]) -> None:
        ids = [worker for worker, _, _, _ in members]
        # Ring partial-allreduce over the group's internal links, inflated
        # by the groups already in flight.
        comm_time = ring_allreduce_time(
            self.comm.links, ids, self.message_bytes, self.sim.now
        ) * (1.0 + self.contention * self._active_groups)
        self._active_groups += 1
        self.groups_formed += 1
        self.sim.schedule_in(comm_time, partial(self._group_done, members, comm_time))

    def _group_done(
        self, members: list[tuple[int, np.ndarray, float, int]], comm_time: float
    ) -> None:
        self._active_groups -= 1
        # Members that departed while the partial-allreduce was in flight are
        # dropped: the survivors average over themselves only, so no
        # aggregate ever includes a departed worker's contribution (their
        # restart, if any, belongs to the rejoin's fresh epoch).
        live = [
            entry for entry in members if entry[3] == self._churn_epoch[entry[0]]
        ]
        if not live:
            return
        self.record_round([worker for worker, _, _, _ in live])
        lr = self.current_lr()
        updated = []
        for worker, grad, _, _ in live:
            params = self.tasks[worker].model.get_params()
            updated.append(self._optimizers[worker].step(params, grad, lr))
        average = np.mean(updated, axis=0)
        for worker, _, compute, _ in live:
            self.tasks[worker].model.set_params(average)
            self.record_iteration(worker, compute, compute + comm_time)
            self._start_compute(worker)

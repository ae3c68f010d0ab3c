"""Synchronous Allreduce-SGD baseline [Jia et al. 2018].

One global round per iteration: every participating worker computes a
gradient on its own minibatch, a ring all-reduce averages the gradients,
and all replicas apply the same update. The round takes

    max_i C_i  +  2 (M - 1) * (S / (M * B_min) + L_max)

where ``S`` is the gradient message size, ``B_min`` the slowest bandwidth on
the ring at round start, and ``L_max`` the worst per-hop latency: the
classic ring-allreduce cost, bottlenecked by the slowest link -- exactly why
the paper finds Allreduce-SGD suffers on heterogeneous networks (Fig. 5)
while staying competitive on homogeneous ones (Fig. 6).

The round itself (and how it degrades under churn: membership is the
active set at round start, so the ring renormalizes over the members) is
:class:`~repro.algorithms.bulksync.BulkSynchronousTrainer`'s; this trainer
prices the exchange.
"""

from __future__ import annotations

from repro.algorithms.bulksync import BulkSynchronousTrainer

__all__ = ["AllreduceTrainer"]


class AllreduceTrainer(BulkSynchronousTrainer):
    """Bulk-synchronous data parallelism with ring all-reduce."""

    name = "allreduce"

    def ring_allreduce_time(self, time: float, members: list[int] | None = None) -> float:
        """Duration of one ring all-reduce over ``members`` starting at ``time``."""
        if members is None:
            members = list(range(self.num_workers))
        m = len(members)
        if m < 2:
            return 0.0  # a lone survivor has nothing to reduce
        ring = [(members[i], members[(i + 1) % m]) for i in range(m)]
        bandwidths = [self.comm.links.bandwidth(a, b, time) for a, b in ring]
        latencies = [self.comm.links.latency(a, b, time) for a, b in ring]
        chunk = self.message_bytes / m
        steps = 2 * (m - 1)
        return steps * (chunk / min(bandwidths) + max(latencies))

    _exchange_time = ring_allreduce_time

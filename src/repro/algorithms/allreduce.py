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
from repro.network.links import LinkSpeedModel

__all__ = ["AllreduceTrainer", "ring_allreduce_time"]


def ring_allreduce_time(
    links: LinkSpeedModel, members: list[int], nbytes: float, time: float
) -> float:
    """Duration of one ring all-reduce of ``nbytes`` over ``members`` on
    ``links``, starting at ``time``: ``2 (g - 1)`` steps, each moving a
    ``1/g`` chunk over the ring's slowest link plus its worst latency."""
    g = len(members)
    if g < 2:
        return 0.0  # a lone member has nothing to reduce
    ring = [(members[i], members[(i + 1) % g]) for i in range(g)]
    bandwidths = [links.bandwidth(a, b, time) for a, b in ring]
    latencies = [links.latency(a, b, time) for a, b in ring]
    return 2 * (g - 1) * (nbytes / g / min(bandwidths) + max(latencies))


class AllreduceTrainer(BulkSynchronousTrainer):
    """Bulk-synchronous data parallelism with ring all-reduce."""

    name = "allreduce"

    def _exchange_time(self, time: float, members: list[int]) -> float:
        return ring_allreduce_time(self.comm.links, members, self.message_bytes, time)

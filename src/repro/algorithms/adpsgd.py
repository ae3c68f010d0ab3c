"""AD-PSGD baseline [Lian et al., ICML 2018] as described in Section V.

Each worker repeatedly: picks a neighbor *uniformly at random*, pulls its
model, averages half-and-half, and applies its local gradient. Gradient
computation overlaps the pull (the paper's implementations overlap too;
Fig. 7 attributes most of NetMax's gain to adaptive probabilities, not
overlap). The uniform selection is exactly what makes AD-PSGD pay for slow
links ~2/3 of the time in the Fig. 2 example.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.gossip import GossipTrainer
from repro.ml.optim import SGDState

__all__ = ["ADPSGDTrainer"]


class ADPSGDTrainer(GossipTrainer):
    """Asynchronous decentralized PSGD with uniform neighbor selection.

    The worker loop (``overlap`` included) is
    :class:`~repro.algorithms.gossip.GossipTrainer`'s. Under churn,
    selection renormalizes over the currently active neighbors; a worker
    whose neighbors are all departed runs compute-only iterations (local
    SGD, no gossip) until a peer returns.
    """

    name = "adpsgd"
    # The batched sweep engine mirrors this trainer's gossip iteration (and,
    # by inheritance, SAPS's -- it only repoints the neighbor cache) for
    # vectorizable cells; the bit-identity suite pins the claim.
    supports_batched = True
    # Weight on the pulled model in the averaging step: AD-PSGD's 1/2.
    mixing_weight = 0.5

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._optimizers = [
            SGDState(self.config.sgd, task.model.dim) for task in self.tasks
        ]
        self._selection_rngs = [
            # repro-lint: allow[RPL004] -- child streams drawn once, in worker
            # order, from the trainer's root generator at construction; the
            # layout is pinned by the golden-regression suite, so migrating to
            # SeedSequence.spawn requires a CACHE_VERSION bump + golden regen
            np.random.default_rng(self.rng.integers(2**63))
            for _ in range(self.num_workers)
        ]
        self._neighbor_cache = [
            self.topology.neighbors(i) for i in range(self.num_workers)
        ]

    def _choose_peer(self, worker: int) -> int:
        """Sample a gossip partner; ``worker`` itself means "no live peer".

        Uniform over the cached neighbors ``worker`` can reach right now.
        With every worker up and every edge live (always true on static
        graphs without churn, and most of the time otherwise) that is the
        cache itself, the O(1) hot path: indexing with rng.integers draws
        the same stream as rng.choice on the cached neighbor array, without
        choice()'s per-call setup. The filtered list -- some worker departed
        (churn) or some edge currently failed (time-varying topology) --
        draws the same stream too whenever it coincides with the cache.
        """
        peers = self.reachable_peers(worker, self._neighbor_cache[worker])
        if not len(peers):
            return worker  # compute-only iteration until a peer returns
        return int(peers[self._selection_rngs[worker].integers(len(peers))])

    def _select_peer(self, worker: int) -> tuple[int, float]:
        return self._choose_peer(worker), self.mixing_weight

    def _apply_update(
        self,
        worker: int,
        peer: int,
        weight: float,
        grad: np.ndarray,
        lr: float,
        duration: float,
    ) -> None:
        model = self.tasks[worker].model
        if peer != worker:
            # Average with the pulled model, then apply the local gradient --
            # AD-PSGD computes the gradient at the pre-averaging parameters.
            # pulled_params is the compression accuracy hook; without a
            # lossy op it is exactly the peer's parameters. Both replicas
            # are read in place: the mix and the step only read them.
            base = (
                (1.0 - weight) * model._params
                + weight * self.pulled_params(worker, peer)
            )
        else:
            base = model._params
        model.set_params(self._optimizers[worker].step(base, grad, lr))

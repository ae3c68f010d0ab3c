"""Algorithm 2: the consensus SGD state machine of one worker node.

Each :class:`ConsensusWorker` owns a model replica and carries the paper's
per-worker state: the neighbor-selection probability row, the consensus
weight ``rho``, and the EMA-smoothed iteration-time vector ``T_i``. The
trainer drives it through the iteration protocol:

1. :meth:`adopt_pending_policy` -- lines 5-8 (new policy applies at the
   *start* of an iteration);
2. :meth:`choose_peer` -- line 9;
3. :meth:`local_gradient_step` -- line 11, the first update
   ``x <- x - alpha * grad`` (with the momentum/weight-decay bookkeeping of
   the paper's PyTorch SGD);
4. :meth:`pull_update` -- lines 13-15, the second update
   ``x <- x - alpha * rho/2 * (d_im + d_mi)/p_im * (x - x_m)``;
5. :meth:`record_time` -- line 16 / procedure UPDATETIMEVECTOR.

The worker knows nothing about the network's state: whoever owns it (the
trainer: churn's active set and the live edge set) composes one boolean
mask of the peers this worker can currently reach and installs it with
:meth:`ConsensusWorker.set_reachable`; selection renormalizes the policy
row over that mask.

Peers selected with low probability get a proportionally *larger* pull
weight (the ``1/p_im`` factor), which is how NetMax retains information from
slow-link neighbors it rarely contacts (Section V-F discussion).
"""

from __future__ import annotations

import numpy as np

from repro.ml.metrics import ExponentialMovingAverage
from repro.ml.models import Model
from repro.ml.optim import SGDConfig, SGDState

__all__ = ["ConsensusWorker"]


class ConsensusWorker:
    """Worker-side state for NetMax's consensus SGD.

    Args:
        worker_id: this worker's index ``i``.
        model: the local model replica ``x_i``.
        neighbors: indices of graph neighbors (the ``d_im = 1`` set).
        num_workers: total worker count ``M``.
        rho: initial consensus weight (until the monitor sends one).
        sgd: momentum/weight-decay configuration for the first update.
        beta: EMA smoothing factor for iteration times (line 21).
        rng: private randomness for neighbor selection.
        probabilities: optional initial selection row (defaults to uniform
            over neighbors, Algorithm 2 line 2).
    """

    def __init__(
        self,
        worker_id: int,
        model: Model,
        neighbors: np.ndarray,
        num_workers: int,
        rho: float,
        sgd: SGDConfig,
        beta: float,
        rng: np.random.Generator,
        probabilities: np.ndarray | None = None,
    ):
        if not 0 <= worker_id < num_workers:
            raise ValueError(f"worker_id {worker_id} out of range for M={num_workers}")
        neighbors = np.asarray(neighbors, dtype=np.int64)
        if neighbors.size == 0:
            raise ValueError("a consensus worker needs at least one neighbor")
        if worker_id in neighbors:
            raise ValueError("a worker cannot neighbor itself")
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        self.worker_id = worker_id
        self.model = model
        self.neighbors = neighbors
        self.num_workers = num_workers
        self.rho = float(rho)
        self._rng = rng
        self._sgd_state = SGDState(sgd, model.dim)
        self.local_step = 0
        # EMA iteration-time vector T_i (one slot per peer, incl. self).
        self._times = [ExponentialMovingAverage(beta) for _ in range(num_workers)]
        if probabilities is None:
            probabilities = np.zeros(num_workers)
            probabilities[neighbors] = 1.0 / neighbors.size
        # Churn / time-varying topology support: boolean mask over all
        # workers of the peers this worker can currently reach (None =
        # everyone). Selection renormalizes the policy row over them; the
        # staged policy itself is left untouched, so a rejoin or an edge
        # repair restores the original probabilities.
        self._reachable: np.ndarray | None = None
        self.probabilities = self._validate_row(probabilities)
        self._refresh_cdf()
        self._pending: tuple[np.ndarray, float] | None = None
        # Diagnostics: how often the pull coefficient had to be clipped below
        # 1 (only possible when a stale policy meets a larger learning rate).
        self.clip_events = 0

    def _validate_row(self, row: np.ndarray) -> np.ndarray:
        row = np.asarray(row, dtype=np.float64)
        if row.shape != (self.num_workers,):
            raise ValueError(
                f"probability row must have shape ({self.num_workers},), got {row.shape}"
            )
        if np.any(row < -1e-12):
            raise ValueError("probabilities must be non-negative")
        if not np.isclose(row.sum(), 1.0, atol=1e-6):
            raise ValueError(f"probability row must sum to 1, got {row.sum()}")
        allowed = np.zeros(self.num_workers, dtype=bool)
        allowed[self.neighbors] = True
        allowed[self.worker_id] = True
        if np.any((row > 1e-12) & ~allowed):
            raise ValueError("probability row places mass on non-neighbors")
        row = np.clip(row, 0.0, None)
        return row / row.sum()

    def _refresh_cdf(self) -> None:
        """Cache the selection CDF over the *effective* probability row.

        Rebuilt only when the policy row or the reachability mask changes,
        so choose_peer is one uniform draw + searchsorted per iteration (the
        same stream rng.choice(p=row) would consume). With no mask the
        effective row IS the policy row; with unreachable peers their mass
        is renormalized over the remaining reachable neighbors (plus self),
        and a worker with no reachable peer left degenerates to all-self
        (compute-only iterations).
        """
        row = self.probabilities
        if self._reachable is not None:
            row = np.where(self._reachable, row, 0.0)
            total = row.sum()
            if total <= 0.0:
                row = np.zeros(self.num_workers)
                row[self.worker_id] = 1.0
            else:
                row = row / total
        self.effective_probabilities = row
        cdf = row.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf

    def set_reachable(self, mask: np.ndarray | None) -> None:
        """Install the mask of currently reachable peers; re-derive the CDF.

        The caller owns network state and composes the mask (the trainer:
        peer active and edge live); the worker itself always stays allowed.
        """
        if mask is not None:
            mask = np.array(mask, dtype=bool)
            if mask.shape != (self.num_workers,):
                raise ValueError(
                    f"mask must have shape ({self.num_workers},), got {mask.shape}"
                )
            mask[self.worker_id] = True
        self._reachable = mask
        self._refresh_cdf()

    # -- policy management (Algorithm 2, lines 5-8) ---------------------------

    def stage_policy(self, row: np.ndarray, rho: float) -> None:
        """Buffer a policy from the monitor; applied at next iteration start."""
        if rho <= 0:
            raise ValueError(f"rho must be positive, got {rho}")
        self._pending = (self._validate_row(row), float(rho))

    def adopt_pending_policy(self) -> bool:
        """Apply a staged policy if any; returns True if one was adopted."""
        if self._pending is None:
            return False
        self.probabilities, self.rho = self._pending
        self._refresh_cdf()
        self._pending = None
        return True

    # -- iteration protocol ----------------------------------------------------

    def choose_peer(self) -> int:
        """Line 9: sample a peer (possibly self) from the probability row."""
        return int(self._cdf.searchsorted(self._rng.random(), side="right"))

    def local_gradient_step(self, grad: np.ndarray, lr: float) -> None:
        """Line 11: first update, ``x <- x - alpha * grad`` with momentum."""
        params = self.model.get_params()
        self.model.set_params(self._sgd_state.step(params, grad, lr))
        self.local_step += 1

    def pull_update(
        self,
        peer: int,
        peer_params: np.ndarray,
        lr: float,
        p_im: float | None = None,
    ) -> None:
        """Lines 13-15: second update toward the pulled parameters.

        ``theta = rho/2 * (d_im + d_mi)/p_im * (x - x_m)`` and
        ``x <- x - alpha * theta``, i.e. a convex move of size
        ``alpha * rho / p_im`` toward the peer (undirected graph, so
        ``d_im + d_mi = 2``). The coefficient is clipped just below 1 for
        safety; feasible policies satisfy Eq. (11), which keeps it under 1/2.

        Args:
            p_im: the (churn-renormalized) probability the peer was selected
                with, captured at *selection time* -- under churn the
                effective row can be re-renormalized while the pull is in
                flight, and the debias weight must match the distribution
                the draw actually came from. Defaults to the current
                effective probability (exact whenever no churn transition
                straddles the iteration).
        """
        if peer == self.worker_id:
            raise ValueError("pull_update needs a real peer, not self")
        if peer not in self.neighbors:
            raise ValueError(f"worker {peer} is not a neighbor of {self.worker_id}")
        if p_im is None:
            p_im = self.effective_probabilities[peer]
        if p_im <= 0:
            raise ValueError(f"pulled from peer {peer} with zero probability")
        coefficient = lr * self.rho / p_im  # alpha * rho * gamma_im, gamma = 1/p
        if coefficient >= 1.0:
            coefficient = 0.999
            self.clip_events += 1
        params = self.model.get_params()
        self.model.set_params(params - coefficient * (params - peer_params))

    def record_time(self, peer: int, duration: float) -> float:
        """Line 16: fold an iteration duration into the EMA for ``peer``."""
        if not 0 <= peer < self.num_workers:
            raise ValueError(f"peer {peer} out of range")
        if duration < 0:
            raise ValueError("duration must be >= 0")
        return self._times[peer].update(duration)

    def time_vector(self) -> np.ndarray:
        """Current EMA vector ``T_i``; NaN where no measurement exists yet."""
        return np.array(
            [ema.value if ema.value is not None else np.nan for ema in self._times]
        )

    def has_measured_all_neighbors(self) -> bool:
        """True once every neighbor has at least one time sample."""
        return all(self._times[int(n)].count > 0 for n in self.neighbors)

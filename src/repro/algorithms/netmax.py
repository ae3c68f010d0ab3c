"""The NetMax trainer: Algorithms 1 + 2 over the event simulator.

Asynchronous per-worker loops drive :class:`~repro.core.consensus
.ConsensusWorker` state machines; a :class:`~repro.core.monitor
.NetworkMonitor` tick fires every ``monitor_period_s`` simulated seconds and
stages fresh ``(P, rho)`` policies, which workers adopt at their next
iteration start (Algorithm 2, lines 5-8).

The two ablation switches of Fig. 7 are first-class:

- ``adaptive=False``: keep uniform neighbor probabilities forever (the
  monitor never publishes);
- ``overlap=False``: serialize gradient computation and communication
  (iteration time ``C + N`` instead of ``max(C, N)``).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.gossip import GossipTrainer
from repro.core.consensus import ConsensusWorker
from repro.core.monitor import NetworkMonitor
from repro.core.policy import PolicyCache

__all__ = ["NetMaxTrainer"]


class NetMaxTrainer(GossipTrainer):
    """Full NetMax (Section III).

    Extra args beyond :class:`~repro.algorithms.gossip.GossipTrainer`
    (which owns the worker loop and ``overlap``):
        adaptive: use the Network Monitor's policies (default True).
        monitor_period_s: the monitor's schedule period ``Ts``
            (paper: 120 s; scale with your simulated run length).
        ema_beta: smoothing factor of the iteration-time EMA (line 21).
        policy_outer_rounds / policy_inner_rounds: Algorithm 3's ``K``/``R``.
        monitor_min_coverage: fraction of neighbor pairs that must have a
            time measurement before the monitor publishes. Strictly below 1:
            waiting for *every* directed pair makes the first policy hostage
            to the slowest unprobed link (a coupon-collector tail measured in
            slow-link round trips), leaving whole runs stuck on the uniform
            fallback; the monitor's conservative gap-filling covers the rest.

    Until the first policy arrives the consensus weight is
    ``1 / (4 * alpha_0 * max_degree)``, which keeps the pull coefficient
    ``alpha rho / p_im`` at most 1/4 under the uniform starting policy.
    The monitor solves Algorithm 3 through a
    :class:`~repro.core.policy.PolicyCache` keyed on the (live-subgraph
    signature, quantized time matrix) pair: on a time-varying topology it
    re-solves on every edge-set change, and recurring subgraphs make the
    cache the difference between O(flips) and O(distinct regimes) LP grids.
    """

    name = "netmax"

    def __init__(
        self,
        *args,
        adaptive: bool = True,
        monitor_period_s: float = 60.0,
        ema_beta: float = 0.8,
        policy_outer_rounds: int = 8,
        policy_inner_rounds: int = 8,
        monitor_min_coverage: float = 0.9,
        policy_scope: str = "global",
        policy_local_hops: int = 2,
        monitor_unprobed: str = "pessimistic",
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if monitor_period_s <= 0:
            raise ValueError("monitor_period_s must be positive")
        self.adaptive = adaptive
        self.monitor_period_s = float(monitor_period_s)
        max_degree = max(self.topology.degree(i) for i in range(self.num_workers))
        alpha0 = self.config.lr_schedule.lr(0.0)
        initial_rho = 1.0 / (4.0 * alpha0 * max_degree)
        self.workers = [
            ConsensusWorker(
                worker_id=i,
                model=self.tasks[i].model,
                neighbors=self.topology.neighbors(i),
                num_workers=self.num_workers,
                rho=initial_rho,
                sgd=self.config.sgd,
                beta=ema_beta,
                # repro-lint: allow[RPL004] -- per-worker child streams drawn
                # once, in worker order, from the trainer's root generator;
                # pinned by the golden-regression suite (CACHE_VERSION bump +
                # golden regen required to migrate to SeedSequence.spawn)
                rng=np.random.default_rng(self.rng.integers(2**63)),
            )
            for i in range(self.num_workers)
        ]
        self.monitor = NetworkMonitor(
            self.topology,
            outer_rounds=policy_outer_rounds,
            inner_rounds=policy_inner_rounds,
            min_coverage=monitor_min_coverage,
            policy_cache=PolicyCache(),
            policy_scope=policy_scope,
            local_hops=policy_local_hops,
            unprobed=monitor_unprobed,
        )
        self.policies_adopted = 0

    # -- event wiring -----------------------------------------------------------

    def _setup(self) -> None:
        super()._setup()
        if self.adaptive:
            self.sim.schedule_in(self.monitor_period_s, self._monitor_tick)

    # -- churn and time-varying edges -------------------------------------------

    def _push_reachability(self) -> None:
        """Hand every consensus worker the mask of peers it can reach (active
        and over a live edge; ``None`` while that is everyone), so neighbor
        selection renormalizes the policy row over them."""
        everyone = self._all_active and self._edges_all_up
        for i, state in enumerate(self.workers):
            mask = None
            if not everyone:
                mask = np.zeros(self.num_workers, dtype=bool)
                mask[self.reachable_peers(i, state.neighbors)] = True
            state.set_reachable(mask)

    def _on_worker_leave(self, worker: int) -> None:
        self._push_reachability()

    def _on_worker_join(self, worker: int) -> None:
        self._push_reachability()
        super()._on_worker_join(worker)

    def _on_edges_changed(self) -> None:
        """Re-mask selection, then re-plan.

        The monitor re-solves immediately when the edge-set signature
        changes (rather than waiting out the period): the policy in force
        was optimized for a subgraph that no longer exists. With the policy
        cache attached, a flap back to a previously seen subgraph re-stages
        the cached policy without paying the LP grid again.
        """
        self._push_reachability()
        if self.adaptive:
            self._run_monitor()

    # -- the two gossip hooks ---------------------------------------------------

    def _select_peer(self, worker: int) -> tuple[int, float]:
        state = self.workers[worker]
        if state.adopt_pending_policy():
            self.policies_adopted += 1
        peer = state.choose_peer()
        # The selection-time probability is the right 1/p_im debias weight
        # for the pull; reading it again at completion would be wrong if a
        # churn transition re-renormalized the row mid-flight.
        return peer, float(state.effective_probabilities[peer])

    def _apply_update(
        self,
        worker: int,
        peer: int,
        weight: float,
        grad: np.ndarray,
        lr: float,
        duration: float,
    ) -> None:
        state = self.workers[worker]
        state.local_gradient_step(grad, lr)  # first update (line 11)
        if peer != worker:
            # Second update (lines 13-15), debiased by the selection-time
            # probability.
            self._apply_pull(worker, peer, lr, weight)
        state.record_time(peer, duration)

    def _apply_pull(self, worker: int, peer: int, lr: float, p_selected: float) -> None:
        """NetMax's weighted pull; the AD-PSGD+Monitor extension overrides it.

        ``pulled_params`` is the compression accuracy hook; without a lossy
        op it is exactly the peer's parameters.
        """
        peer_params = self.pulled_params(worker, peer)
        self.workers[worker].pull_update(peer, peer_params, lr, p_im=p_selected)

    # -- the Network Monitor loop (Algorithm 1) ------------------------------------

    def _monitor_tick(self) -> None:
        self._run_monitor()
        next_time = self.sim.now + self.monitor_period_s
        if next_time < self.config.max_sim_time:
            self.sim.schedule_at(next_time, self._monitor_tick)

    def _run_monitor(self) -> None:
        """One monitor pass: solve on the live (active x edge) subgraph and
        stage the policy at the workers. Called by the periodic tick and,
        on a time-varying topology, by every edge-set change."""
        raw_times = np.stack([state.time_vector() for state in self.workers])
        active = None if self._all_active else np.asarray(self._active, dtype=bool)
        # The LP wants the whole d_im table: the one dense read of the live
        # graph (gossip itself only ever asks reachable()).
        adjacency = (
            None if self._edges_all_up else self.topology.adjacency_at(self.sim.now)
        )
        result = self.monitor.tick(
            raw_times, self.current_lr(), active=active, adjacency=adjacency
        )
        if result is not None:
            # Under churn the policy covers the active subgraph only; the
            # departed keep their previous rows (the mask already steers
            # everyone's selection away from them) and pick up the next
            # policy published after their rejoin.
            rho_per_worker = result.rho_per_worker
            for i, state in enumerate(self.workers):
                if self._active[i]:
                    rho_i = (
                        result.rho
                        if rho_per_worker is None
                        else float(rho_per_worker[i])
                    )
                    state.stage_policy(result.policy[i], rho_i)

    def _extras(self) -> dict:
        extras = {
            "monitor_stats": self.monitor.stats,
            "policies_adopted": self.policies_adopted,
            "clip_events": int(sum(w.clip_events for w in self.workers)),
            "policy_cache_stats": self.monitor.policy_cache.stats,
        }
        if self.monitor.last_result is not None:
            extras["final_policy"] = self.monitor.last_result.policy
            extras["final_rho"] = self.monitor.last_result.rho
            extras["final_lambda2"] = self.monitor.last_result.lambda2
        return extras

"""Algorithm 1: the Network Monitor.

A lightweight central service that never touches training data or model
parameters. Each period ``Ts`` it (a) collects the workers' EMA iteration
times, (b) assembles them into a full matrix (filling gaps conservatively),
(c) runs Algorithm 3, and (d) ships the resulting ``(P, rho)`` back.

The monitor is deliberately decoupled from the simulator: trainers feed it
raw per-worker time vectors and deliver its policies, so the same class
serves NetMax, the AD-PSGD+Monitor extension (Section III-D), and unit
tests that exercise it standalone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.policy import (
    PolicyCache,
    PolicyGenerationError,
    PolicyResult,
    generate_policies,
    generate_policy,
)
from repro.graph.topology import Topology

__all__ = ["NetworkMonitor", "MonitorStats"]


@dataclass
class MonitorStats:
    """Counters describing the monitor's activity so far."""

    ticks: int = 0
    policies_published: int = 0
    skipped_insufficient_data: int = 0
    skipped_infeasible: int = 0
    skipped_disconnected: int = 0


class NetworkMonitor:
    """Policy generator service over a (possibly time-varying) topology.

    Args:
        topology: the communication graph (gives the ``d_im`` indicators).
            The base/union graph for a time-varying topology -- callers pass
            the currently live adjacency to :meth:`tick`.
        outer_rounds: Algorithm 3's ``K``.
        inner_rounds: Algorithm 3's ``R``.
        epsilon: accuracy target in the convergence-time prediction.
        min_coverage: fraction of neighbor pairs that must have at least one
            time measurement before the monitor publishes its first policy.
            Until then, workers keep their uniform defaults -- publishing
            from near-empty statistics would steer the whole cluster off
            guesses.
        policy_cache: optional :class:`~repro.core.policy.PolicyCache`.
            When set, Algorithm 3 runs through the cache: time matrices are
            quantized, results are keyed on the (live-subgraph signature,
            quantized times, alpha, grid) tuple, and repeated re-solves on
            recurring subgraphs -- the common case under flapping edges --
            are near-free.
        policy_scope: ``"global"`` (default) solves one LP over the whole
            live subgraph; ``"local"`` solves Algorithm 3 per worker on its
            ``local_hops``-hop ego subgraph and assembles the full policy
            from the center rows. Local solves go through the same cache and
            signature scheme, so a local solve whose ego graph is the full
            graph is bit-identical to a global solve.
        local_hops: ego-subgraph radius for ``policy_scope="local"``.
    """

    def __init__(
        self,
        topology: Topology,
        outer_rounds: int = 10,
        inner_rounds: int = 10,
        epsilon: float = 1e-2,
        min_coverage: float = 1.0,
        policy_cache: PolicyCache | None = None,
        policy_scope: str = "global",
        local_hops: int = 2,
    ):
        if not 0.0 < min_coverage <= 1.0:
            raise ValueError(f"min_coverage must be in (0, 1], got {min_coverage}")
        if policy_scope not in ("global", "local"):
            raise ValueError(
                f"policy_scope must be 'global' or 'local', got {policy_scope!r}"
            )
        if local_hops < 1:
            raise ValueError(f"local_hops must be >= 1, got {local_hops}")
        if outer_rounds < 1 or inner_rounds < 1:
            # Checked here, not at the first tick's solve: a grid with no
            # point would otherwise fail mid-run.
            raise ValueError(
                "outer_rounds and inner_rounds must be >= 1, got "
                f"{outer_rounds} and {inner_rounds}"
            )
        self.topology = topology
        self.outer_rounds = outer_rounds
        self.inner_rounds = inner_rounds
        self.epsilon = epsilon
        self.min_coverage = min_coverage
        self.policy_cache = policy_cache
        self.policy_scope = policy_scope
        self.local_hops = int(local_hops)
        self.stats = MonitorStats()
        self.last_result: PolicyResult | None = None

    # -- time-matrix assembly --------------------------------------------------

    @staticmethod
    def _coverage_of(raw_times: np.ndarray, adjacency: np.ndarray) -> float:
        total = int(adjacency.sum())
        measured = int(np.sum(adjacency & ~np.isnan(raw_times)))
        return measured / total if total else 1.0

    def coverage(self, raw_times: np.ndarray) -> float:
        """Fraction of directed neighbor pairs with a measurement."""
        raw_times = np.asarray(raw_times, dtype=np.float64)
        return self._coverage_of(raw_times, self.topology.adjacency)

    def _assemble(
        self, raw_times: np.ndarray, adjacency: np.ndarray
    ) -> np.ndarray | None:
        """Conservative gap-filling over an arbitrary adjacency matrix."""
        if self._coverage_of(raw_times, adjacency) < self.min_coverage:
            return None
        m = adjacency.shape[0]
        filled = raw_times.copy()
        for i in range(m):
            row_known = filled[i][adjacency[i] & ~np.isnan(filled[i])]
            if row_known.size == 0:
                return None
            missing = adjacency[i] & np.isnan(filled[i])
            filled[i, missing] = float(row_known.max())
        filled[~adjacency] = 0.0
        return filled

    def assemble_time_matrix(self, raw_times: np.ndarray) -> np.ndarray | None:
        """Fill unmeasured neighbor entries conservatively.

        A missing ``t_im`` is replaced by the *largest* time worker ``i``
        has observed anywhere -- assuming an unmeasured link is slow keeps
        the LP from routing traffic onto links nobody has evidence about.
        Returns ``None`` when coverage is below ``min_coverage`` or some
        worker has no measurements at all.
        """
        raw_times = np.asarray(raw_times, dtype=np.float64)
        m = self.topology.num_workers
        if raw_times.shape != (m, m):
            raise ValueError(f"expected ({m}, {m}) time matrix, got {raw_times.shape}")
        return self._assemble(raw_times, self.topology.adjacency)

    # -- Algorithm 1, line 5 -----------------------------------------------------

    def tick(
        self,
        raw_times: np.ndarray,
        alpha: float,
        active: np.ndarray | None = None,
        adjacency: np.ndarray | None = None,
    ) -> PolicyResult | None:
        """One monitor period: assemble times and run Algorithm 3.

        Args:
            raw_times: ``(M, M)`` matrix of EMA iteration times with NaN
                where a worker has not yet sampled a peer.
            alpha: the learning rate currently in force at the workers.
            active: optional boolean activity mask (churn). When some workers
                are down, the policy is solved over the *induced subgraph* of
                active workers -- coverage, gap-filling, and the LP all
                renormalize over the live cluster -- and the returned policy
                is re-embedded at full size with zero rows/columns for the
                departed (only active workers should adopt it).
            adjacency: optional ``(M, M)`` boolean live-edge matrix (a
                time-varying topology's ``adjacency_at(now)``). The policy
                is solved on the live subgraph -- intersected with the base
                graph, then induced on the active workers -- so a published
                policy never puts mass on a currently-failed edge.

        Returns:
            A fresh :class:`PolicyResult`, or ``None`` when no policy could
            be produced this period (insufficient data, infeasible grid, or
            a disconnected live subgraph); workers then simply keep their
            current policy.
        """
        self.stats.ticks += 1
        raw_times = np.asarray(raw_times, dtype=np.float64)
        m = self.topology.num_workers
        if raw_times.shape != (m, m):
            raise ValueError(f"expected ({m}, {m}) time matrix, got {raw_times.shape}")
        base = self.topology.adjacency
        restricted = False
        if adjacency is not None:
            adjacency = np.asarray(adjacency, dtype=bool)
            if adjacency.shape != (m, m):
                raise ValueError(
                    f"expected ({m}, {m}) adjacency, got {adjacency.shape}"
                )
            live = adjacency & base
            restricted = not np.array_equal(live, base)
            base = live
        if active is not None:
            active = np.asarray(active, dtype=bool)
            if active.all():
                active = None
        if active is None:
            idx = np.arange(m)
            sub_adjacency = base
        else:
            idx = np.flatnonzero(active)
            if idx.size < 2:
                self.stats.skipped_insufficient_data += 1
                return None
            sub_adjacency = base[np.ix_(idx, idx)]
        if active is not None or restricted:
            if not Topology(sub_adjacency).is_connected():
                # Assumption 1 fails on the live cluster; publishing a policy
                # for a split graph would strand the components.
                self.stats.skipped_disconnected += 1
                return None
        matrix = self._assemble(raw_times[np.ix_(idx, idx)], sub_adjacency)
        if matrix is None:
            self.stats.skipped_insufficient_data += 1
            return None
        try:
            if self.policy_scope == "local":
                result = self._generate_local(matrix, sub_adjacency, alpha, idx)
            else:
                result = self._generate(matrix, sub_adjacency, alpha, idx)
        except PolicyGenerationError:
            self.stats.skipped_infeasible += 1
            return None
        if active is not None:
            embedded = np.zeros((m, m))
            embedded[np.ix_(idx, idx)] = result.policy
            rho_per_worker = result.rho_per_worker
            if rho_per_worker is not None:
                full_rho = np.zeros(m)
                full_rho[idx] = rho_per_worker
                rho_per_worker = full_rho
            result = replace(result, policy=embedded, rho_per_worker=rho_per_worker)
        self.stats.policies_published += 1
        self.last_result = result
        return result

    def _generate(
        self,
        matrix: np.ndarray,
        sub_adjacency: np.ndarray,
        alpha: float,
        idx: np.ndarray,
    ) -> PolicyResult:
        """Run Algorithm 3, through the policy cache when one is attached.

        The cache signature folds in ``idx`` (which workers the subgraph is
        induced on) alongside the live sub-adjacency: two active subsets
        with isomorphic graphs are still different policies at full size.
        """
        if self.policy_cache is None:
            return generate_policy(
                matrix,
                sub_adjacency.astype(np.float64),
                alpha,
                outer_rounds=self.outer_rounds,
                inner_rounds=self.inner_rounds,
                epsilon=self.epsilon,
            )
        return self.policy_cache.generate(
            matrix,
            sub_adjacency.astype(np.float64),
            alpha,
            outer_rounds=self.outer_rounds,
            inner_rounds=self.inner_rounds,
            epsilon=self.epsilon,
            signature=self._signature(idx, sub_adjacency),
        )

    def _generate_many(
        self,
        matrices: list[np.ndarray],
        adjacencies: list[np.ndarray],
        alpha: float,
        subsets: list[np.ndarray],
    ) -> list[PolicyResult]:
        """:meth:`_generate` for many subgraphs, one batched Algorithm 3.

        Raises :exc:`PolicyGenerationError` at the first infeasible one,
        leaving the cache as a loop of :meth:`_generate` calls would.
        """
        indicators = [adjacency.astype(np.float64) for adjacency in adjacencies]
        if self.policy_cache is not None:
            return self.policy_cache.generate_many(
                matrices,
                indicators,
                alpha,
                outer_rounds=self.outer_rounds,
                inner_rounds=self.inner_rounds,
                epsilon=self.epsilon,
                signatures=[
                    self._signature(subset, adjacency)
                    for subset, adjacency in zip(subsets, adjacencies)
                ],
            )
        results = generate_policies(
            matrices, indicators, alpha,
            self.outer_rounds, self.inner_rounds, self.epsilon,
        )
        if any(result is None for result in results):
            raise PolicyGenerationError("no feasible policy for a subgraph")
        return results

    @staticmethod
    def _signature(subset: np.ndarray, adjacency: np.ndarray) -> bytes:
        return subset.astype(np.int64).tobytes() + np.packbits(adjacency).tobytes()

    # -- neighborhood-local solves (policy_scope="local") ------------------------

    @staticmethod
    def _ego_indices(adjacency: np.ndarray, center: int, hops: int) -> np.ndarray:
        """Sorted indices of the ``hops``-hop ego subgraph around ``center``.

        BFS by rows of the boolean adjacency; each level is one vectorized
        ``any`` over the frontier's rows, so the cost is O(deg * ego size),
        not O(N^2). Always includes ``center``; the result is connected by
        construction.
        """
        n = adjacency.shape[0]
        mask = np.zeros(n, dtype=bool)
        mask[center] = True
        frontier = np.array([center])
        for _ in range(hops):
            grown = adjacency[frontier].any(axis=0) & ~mask
            if not grown.any():
                break
            mask |= grown
            frontier = np.flatnonzero(grown)
        return np.flatnonzero(mask)

    def _generate_local(
        self,
        matrix: np.ndarray,
        sub_adjacency: np.ndarray,
        alpha: float,
        idx: np.ndarray,
    ) -> PolicyResult:
        """Per-worker Algorithm 3 on ``local_hops``-hop ego subgraphs.

        Each worker's row of the published policy comes from the solve on its
        own ego subgraph; ``rho`` is staged per worker (``rho_per_worker``),
        and the scalar aggregates (``rho``, ``t_bar``, ``lambda2``, predicted
        time) report the worst ego solve, so the headline numbers stay
        conservative. Ego solves share ``_generate``'s cache-signature scheme
        -- the signature is the *global* worker ids plus the ego adjacency --
        so workers with identical neighborhoods hit the same cache entry, and
        an ego graph that spans the full graph reproduces the global solve
        bit for bit. All of a tick's ego solves run as one batched
        Algorithm 3 pass (:meth:`_generate_many`).

        Raises :exc:`PolicyGenerationError` if any ego solve is infeasible
        (the caller skips the whole period, as in global mode).
        """
        n = sub_adjacency.shape[0]
        egos = [
            self._ego_indices(sub_adjacency, center, self.local_hops)
            for center in range(n)
        ]
        solves = self._generate_many(
            [matrix[local[:, None], local] for local in egos],
            [sub_adjacency[local[:, None], local] for local in egos],
            alpha,
            [idx[local] for local in egos],
        )
        policy = np.zeros((n, n))
        rho_per_worker = np.zeros(n)
        rho = t_bar = lambda2 = predicted = -np.inf
        evaluated = infeasible = 0
        for center, (local, ego) in enumerate(zip(egos, solves)):
            pos = int(np.searchsorted(local, center))
            policy[center, local] = ego.policy[pos]
            rho_per_worker[center] = ego.rho
            rho = max(rho, ego.rho)
            t_bar = max(t_bar, ego.t_bar)
            lambda2 = max(lambda2, ego.lambda2)
            predicted = max(predicted, ego.predicted_convergence_time)
            evaluated += ego.candidates_evaluated
            infeasible += ego.candidates_infeasible
        return PolicyResult(
            policy=policy,
            rho=rho,
            t_bar=t_bar,
            lambda2=lambda2,
            predicted_convergence_time=predicted,
            epsilon=self.epsilon,
            candidates_evaluated=evaluated,
            candidates_infeasible=infeasible,
            rho_per_worker=rho_per_worker,
        )

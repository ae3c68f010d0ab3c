"""Neighborhood-local policy solves and the monitor's gap filling.

Covers the ``policy_scope="local"`` mode (per-worker ego-subgraph solves)
and the gap filling of :class:`NetworkMonitor`:

- the headline bit-identity claim: local mode on a full graph with
  ``local_hops >= diameter`` reproduces the global solve exactly (shared
  cache signatures make it literally the same cached result);
- local mode on a sparse graph publishes a valid, edge-respecting policy
  with per-worker consensus weights;
- churn re-embedding zero-fills ``rho_per_worker`` for departed workers;
- a tick's ego solves, batched into one Algorithm 3 pass, leave the
  published policy, the cache's entries and its counters exactly as one
  ``PolicyCache.generate`` per ego in worker order would -- through
  repeated keys, mid-tick evictions and an infeasible ego;
- a gap is filled with the slowest time its row observed (regression pin);
- constructor validation for ``policy_scope`` and ``local_hops``.
"""

import dataclasses

import numpy as np
import pytest

import repro.core.policy as policy_module
from repro.core.monitor import NetworkMonitor
from repro.core.policy import PolicyCache, PolicyGenerationError
from repro.graph import Topology


def _sym_times(topology, seed=0, lo=0.5, hi=3.0):
    rng = np.random.default_rng(seed)
    m = topology.num_workers
    times = rng.uniform(lo, hi, (m, m))
    times = (times + times.T) / 2
    times[~topology.adjacency] = np.nan
    return times


class TestLocalScope:
    def test_full_graph_wide_hops_matches_global_bitwise(self, full5):
        times = _sym_times(full5, seed=3)
        global_monitor = NetworkMonitor(full5, policy_cache=PolicyCache())
        local_monitor = NetworkMonitor(
            full5, policy_cache=PolicyCache(),
            policy_scope="local", local_hops=full5.num_workers,
        )
        global_result = global_monitor.tick(times, alpha=0.05)
        local_result = local_monitor.tick(times, alpha=0.05)
        assert global_result is not None and local_result is not None
        np.testing.assert_array_equal(local_result.policy, global_result.policy)
        assert local_result.rho == global_result.rho
        assert local_result.t_bar == global_result.t_bar
        assert local_result.lambda2 == global_result.lambda2
        assert (
            local_result.predicted_convergence_time
            == global_result.predicted_convergence_time
        )
        # Every worker's ego graph is the whole graph, so all five solves
        # share one cache signature: one cold solve, the rest hits.
        stats = local_monitor.policy_cache.stats
        assert stats.cold_solves == 1 and stats.hits == full5.num_workers - 1
        np.testing.assert_array_equal(
            local_result.rho_per_worker, np.full(5, global_result.rho)
        )

    def test_works_without_cache(self, full5):
        """Cacheless local mode still matches cacheless global on a full
        graph: Algorithm 3 is deterministic, so the n identical ego solves
        all reproduce the global solution (no quantization in the way)."""
        times = _sym_times(full5, seed=3)
        global_result = NetworkMonitor(full5).tick(times, alpha=0.05)
        local_result = NetworkMonitor(
            full5, policy_scope="local", local_hops=5
        ).tick(times, alpha=0.05)
        np.testing.assert_array_equal(local_result.policy, global_result.policy)
        np.testing.assert_array_equal(
            local_result.rho_per_worker, np.full(5, global_result.rho)
        )

    def test_sparse_graph_policy_is_valid(self):
        topology = Topology.ring(8)
        times = _sym_times(topology, seed=1)
        monitor = NetworkMonitor(
            topology, policy_cache=PolicyCache(),
            policy_scope="local", local_hops=2,
        )
        result = monitor.tick(times, alpha=0.05)
        assert result is not None
        m = topology.num_workers
        np.testing.assert_allclose(result.policy.sum(axis=1), np.ones(m))
        off_graph = ~(topology.adjacency | np.eye(m, dtype=bool))
        assert not result.policy[off_graph].any()
        assert result.rho_per_worker.shape == (m,)
        assert np.all(result.rho_per_worker > 0)
        assert result.rho == result.rho_per_worker.max()

    def test_global_mode_has_no_per_worker_rho(self, full5):
        result = NetworkMonitor(full5).tick(_sym_times(full5), alpha=0.05)
        assert result is not None
        assert result.rho_per_worker is None

    def test_churn_reembeds_rho_per_worker(self, full5):
        times = _sym_times(full5, seed=2)
        monitor = NetworkMonitor(
            full5, policy_scope="local", local_hops=5, min_coverage=0.5
        )
        active = np.array([True, True, False, True, True])
        result = monitor.tick(times, alpha=0.05, active=active)
        assert result is not None
        assert result.rho_per_worker.shape == (5,)
        assert result.rho_per_worker[2] == 0.0
        assert np.all(result.rho_per_worker[active] > 0)
        assert not result.policy[2].any() and not result.policy[:, 2].any()

    def test_ego_indices_bfs(self):
        topology = Topology.ring(8)
        dense = topology.adjacency
        np.testing.assert_array_equal(
            NetworkMonitor._ego_indices(dense, 0, 1), [0, 1, 7]
        )
        np.testing.assert_array_equal(
            NetworkMonitor._ego_indices(dense, 0, 2), [0, 1, 2, 6, 7]
        )
        np.testing.assert_array_equal(
            NetworkMonitor._ego_indices(dense, 0, 10), np.arange(8)
        )


def _barbell():
    """Two 4-cliques joined by the edge 3-4: with 1-hop egos, workers 0-2
    (and 5-7) share an ego -- a key repeated inside one tick -- and the
    bridge workers' egos are one worker larger."""
    edges = [(a, b) for block in (range(4), range(4, 8))
             for a in block for b in block if a < b]
    return Topology.from_edges(8, edges + [(3, 4)])


def _ego_loop(monitor, matrix, alpha):
    """``_generate_local`` as one ``_generate`` call per ego, in worker order
    (the sequential semantics the batched path must keep)."""
    n = matrix.shape[0]
    adjacency = monitor.topology.adjacency
    idx = np.arange(n)
    policy, rho_per_worker, solves = np.zeros((n, n)), np.zeros(n), []
    for center in range(n):
        local = monitor._ego_indices(adjacency, center, monitor.local_hops)
        ego = monitor._generate(
            matrix[np.ix_(local, local)], adjacency[np.ix_(local, local)],
            alpha, idx[local],
        )
        policy[center, local] = ego.policy[int(np.searchsorted(local, center))]
        rho_per_worker[center] = ego.rho
        solves.append(ego)
    return policy, rho_per_worker, solves


def _local_monitor(topology, cache):
    return NetworkMonitor(
        topology, policy_cache=cache, policy_scope="local", local_hops=1,
        outer_rounds=3, inner_rounds=3,
    )


class TestBatchedEgoSolves:
    @pytest.mark.parametrize("max_entries", [None, 256, 2])
    def test_matches_a_per_ego_loop(self, max_entries):
        topology = _barbell()
        matrix = NetworkMonitor(topology).assemble_time_matrix(
            _sym_times(topology, seed=4)
        )

        def cache():
            return None if max_entries is None else PolicyCache(max_entries)

        batched, looped = _local_monitor(topology, cache()), _local_monitor(topology, cache())
        idx = np.arange(topology.num_workers)
        for alpha in (0.05, 0.05, 0.07):  # a warm tick, then a new key set
            result = batched._generate_local(matrix, topology.adjacency, alpha, idx)
            policy, rho_per_worker, solves = _ego_loop(looped, matrix, alpha)
            assert result.policy.tobytes() == policy.tobytes()
            assert result.rho_per_worker.tobytes() == rho_per_worker.tobytes()
            assert result.lambda2 == max(ego.lambda2 for ego in solves)
            assert result.candidates_evaluated == sum(
                ego.candidates_evaluated for ego in solves
            )
            if max_entries is not None:
                assert batched.policy_cache.stats == looped.policy_cache.stats
                assert list(batched.policy_cache._entries) == list(
                    looped.policy_cache._entries
                )
        if max_entries == 256:
            assert batched.policy_cache.stats.hits > 0
        if max_entries == 2:
            assert batched.policy_cache.stats.evictions > 0

    def test_cached_entries_own_their_policy(self):
        topology = _barbell()
        monitor = _local_monitor(topology, PolicyCache())
        matrix = monitor.assemble_time_matrix(_sym_times(topology, seed=4))
        monitor._generate_local(
            matrix, topology.adjacency, 0.05, np.arange(topology.num_workers)
        )
        for entry in monitor.policy_cache._entries.values():
            assert entry.policy.base is None and not entry.policy.flags.writeable

    @pytest.mark.parametrize("cached", [True, False])
    def test_first_infeasible_ego_raises_like_the_loop(self, cached, monkeypatch):
        """Egos of 5 workers (the bridge's) are made infeasible: the batch
        raises at worker 3, after the same lookups, stores and counts."""
        real = policy_module._lp_stack

        def no_five(times, *args):
            policy, feasible = real(times, *args)
            return policy, feasible & (times.shape[-1] != 5)

        monkeypatch.setattr(policy_module, "_lp_stack", no_five)
        topology = _barbell()
        matrix = NetworkMonitor(topology).assemble_time_matrix(
            _sym_times(topology, seed=4)
        )
        idx = np.arange(topology.num_workers)
        monitors = [
            _local_monitor(topology, PolicyCache() if cached else None)
            for _ in range(2)
        ]
        for _ in range(2):  # a cold tick, then one that fails from the cache
            with pytest.raises(PolicyGenerationError):
                monitors[0]._generate_local(matrix, topology.adjacency, 0.05, idx)
            with pytest.raises(PolicyGenerationError):
                _ego_loop(monitors[1], matrix, 0.05)
            if cached:
                first, second = (m.policy_cache for m in monitors)
                assert first.stats == second.stats
                assert list(first._entries) == list(second._entries)
                assert [e is None for e in first._entries.values()] == [
                    e is None for e in second._entries.values()
                ]
        if cached:
            assert dataclasses.asdict(monitors[0].policy_cache.stats) == {
                "hits": 5, "cold_solves": 2, "infeasible_hits": 1, "evictions": 0,
            }


class TestGapFill:
    def test_gap_is_the_row_maximum(self, full5, hetero_times5):
        """Regression pin: an unmeasured neighbor time is filled with the
        slowest time its row has observed."""
        monitor = NetworkMonitor(full5, min_coverage=0.5)
        raw = hetero_times5.astype(float).copy()
        raw[~full5.adjacency] = np.nan
        raw[0, 1] = np.nan
        assembled = monitor.assemble_time_matrix(raw)
        row_known = raw[0][full5.adjacency[0] & ~np.isnan(raw[0])]
        assert assembled[0, 1] == pytest.approx(row_known.max())


class TestValidation:
    def test_bad_policy_scope_rejected(self, full5):
        with pytest.raises(ValueError, match="policy_scope"):
            NetworkMonitor(full5, policy_scope="regional")

    def test_bad_local_hops_rejected(self, full5):
        with pytest.raises(ValueError, match="local_hops"):
            NetworkMonitor(full5, local_hops=0)

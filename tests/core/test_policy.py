"""Unit tests for Algorithm 3 (policy generation)."""

import numpy as np
import pytest

from repro.core.policy import (
    PolicyGenerationError,
    generate_policy,
    rho_interval,
    solve_policy_lp,
    t_interval,
    uniform_policy,
)
from repro.graph import Topology
from repro.graph.topology import make_topology


class TestIntervals:
    def test_rho_interval(self):
        low, high = rho_interval(0.1)
        assert low == 0.0
        assert high == pytest.approx(5.0)

    def test_rho_interval_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            rho_interval(0.0)

    def test_t_interval_formulas(self, full5, hetero_times5):
        alpha, rho = 0.1, 0.5
        lower, upper = t_interval(hetero_times5, full5.indicator(), alpha, rho)
        m = 5
        symmetric = full5.indicator() * 2
        expected_lower = np.max(alpha * rho / m * np.sum(hetero_times5 * symmetric, axis=1))
        expected_upper = np.min(np.max(hetero_times5 * full5.indicator(), axis=1) / m)
        assert lower == pytest.approx(expected_lower)
        assert upper == pytest.approx(expected_upper)

    def test_t_interval_empty_for_huge_rho(self, full5, hetero_times5):
        lower, upper = t_interval(hetero_times5, full5.indicator(), 0.1, 50.0)
        assert lower > upper

    def test_t_interval_scales_with_rho(self, full5, hetero_times5):
        low1, _ = t_interval(hetero_times5, full5.indicator(), 0.1, 0.2)
        low2, _ = t_interval(hetero_times5, full5.indicator(), 0.1, 0.4)
        assert low2 == pytest.approx(2 * low1)


class TestSolvePolicyLP:
    def test_feasible_solution_satisfies_constraints(self, full5, hetero_times5):
        indicator = full5.indicator()
        alpha, rho = 0.1, 0.4
        lower, upper = t_interval(hetero_times5, indicator, alpha, rho)
        t_bar = (lower + upper) / 2
        policy = solve_policy_lp(hetero_times5, indicator, alpha, rho, t_bar)
        assert policy is not None
        # Eq. 13: rows sum to 1.
        np.testing.assert_allclose(policy.sum(axis=1), 1.0, atol=1e-9)
        # Eq. 11: neighbor probabilities above the floor.
        floor = 2 * alpha * rho
        off = indicator > 0
        assert np.all(policy[off] >= floor - 1e-9)
        # Eq. 10: every worker's mean iteration time equals M * t_bar.
        mean_times = np.sum(hetero_times5 * policy * indicator, axis=1)
        np.testing.assert_allclose(mean_times, 5 * t_bar, rtol=1e-6)

    def test_non_edges_zero(self, hetero_times5):
        topo = Topology.ring(5)
        indicator = topo.indicator()
        alpha, rho = 0.1, 0.4
        lower, upper = t_interval(hetero_times5, indicator, alpha, rho)
        policy = solve_policy_lp(hetero_times5, indicator, alpha, rho, (lower + upper) / 2)
        assert policy is not None
        off_edges = (indicator == 0) & ~np.eye(5, dtype=bool)
        assert np.all(policy[off_edges] == 0.0)

    def test_infeasible_returns_none(self, full5, hetero_times5):
        # t_bar far above the feasible band.
        policy = solve_policy_lp(hetero_times5, full5.indicator(), 0.1, 0.4, 100.0)
        assert policy is None

    def test_tie_break_prefers_fast_links(self, full5):
        """With a generous time budget, extra mass should land on fast links."""
        times = np.full((5, 5), 1.0)
        times[0, 1] = times[1, 0] = 0.1  # one fast link
        np.fill_diagonal(times, 0.0)
        indicator = full5.indicator()
        alpha, rho = 0.1, 0.2
        lower, upper = t_interval(times, indicator, alpha, rho)
        t_bar = lower + 0.25 * (upper - lower)
        policy = solve_policy_lp(times, indicator, alpha, rho, t_bar)
        assert policy is not None
        slow_neighbors = [2, 3, 4]
        assert policy[0, 1] > max(policy[0, m] for m in slow_neighbors)

    @pytest.mark.parametrize("topology", [Topology.star(5), Topology.fully_connected(2)])
    def test_degree_one_worker_at_upper_t_is_feasible(self, topology, rng):
        """At ``t_bar = U`` a degree-1 worker's only feasible row is its one
        neighbor with probability 1 -- the budget sits exactly on the end of
        its range, and must not round out of it."""
        m = topology.num_workers
        indicator = topology.indicator()
        times = rng.uniform(0.1, 2.0, (m, m))
        times = (times + times.T) / 2
        alpha, rho = 0.1, 0.05
        _, upper = t_interval(times, indicator, alpha, rho)
        policy = solve_policy_lp(times, indicator, alpha, rho, upper)
        assert policy is not None
        # The degree-1 worker whose link sets U = t / M.
        binding = np.argmin(np.where(indicator.sum(axis=1) == 1,
                                     (times * indicator).max(axis=1), np.inf))
        assert policy[binding].max() == pytest.approx(1.0, abs=1e-9)

    def test_tied_times_share_mass_equally(self, full5):
        """The homogeneous cluster: a symmetric LP gets the symmetric answer,
        not a vertex that lumps the residual mass on one arbitrary neighbor."""
        times = np.full((5, 5), 0.3)
        indicator = full5.indicator()
        lower, upper = t_interval(times, indicator, 0.1, 0.5)
        policy = solve_policy_lp(times, indicator, 0.1, 0.5, (lower + upper) / 2)
        off = indicator > 0
        np.testing.assert_allclose(policy[off], policy[0, 1], rtol=1e-12)
        assert policy[0, 0] > 0  # a budget under t: the rest stays home


class TestGeneratePolicy:
    def test_finds_feasible_policy(self, full5, hetero_times5):
        result = generate_policy(hetero_times5, full5.indicator(), 0.1)
        assert result.candidates_evaluated > 0
        assert 0.0 < result.lambda2 < 1.0
        assert result.predicted_convergence_time > 0

    def test_prefers_fast_links(self, full5, hetero_times5):
        result = generate_policy(hetero_times5, full5.indicator(), 0.1)
        policy = result.policy
        floor = 2 * 0.1 * result.rho
        # The fast pairs (0,1) and (2,3) get mass well above the floor...
        assert policy[0, 1] > floor * 1.5
        assert policy[2, 3] > floor * 1.5
        # ...and on average fast links carry more probability than slow ones
        # (individual slow links may receive the lumped excess mass of the
        # budget equality, but not the population of them).
        fast = [policy[0, 1], policy[1, 0], policy[2, 3], policy[3, 2]]
        slow_mask = (hetero_times5 >= 2.0) & (full5.indicator() > 0)
        assert np.mean(fast) > np.mean(policy[slow_mask])

    def test_respects_floor_constraints(self, full5, hetero_times5):
        result = generate_policy(hetero_times5, full5.indicator(), 0.1)
        floor = 2 * 0.1 * result.rho
        off = full5.indicator() > 0
        assert np.all(result.policy[off] >= floor - 1e-9)

    def test_severe_slowdown_shrinks_rho(self, full5, hetero_times5):
        """The rho cap reacts to an extreme slow link (Section V-A dynamics)."""
        calm = generate_policy(hetero_times5, full5.indicator(), 0.1)
        stormy_times = hetero_times5.copy()
        stormy_times[1, 4] = stormy_times[4, 1] = 80.0
        stormy = generate_policy(stormy_times, full5.indicator(), 0.1)
        assert stormy.rho < calm.rho
        # Probability on the pathological link collapses to its (smaller) floor.
        assert stormy.policy[1, 4] < calm.policy[1, 4]

    def test_works_on_sparse_topology(self, rng):
        topo = Topology.ring(6)
        times = np.full((6, 6), 1.0)
        times[0, 1] = times[1, 0] = 0.1
        result = generate_policy(times, topo.indicator(), 0.05)
        off_edges = (topo.indicator() == 0) & ~np.eye(6, dtype=bool)
        assert np.all(result.policy[off_edges] == 0.0)

    def test_uniform_times_give_near_uniform_policy(self, full5):
        times = np.full((5, 5), 1.0)
        np.fill_diagonal(times, 0.0)
        result = generate_policy(times, full5.indicator(), 0.1)
        off = full5.indicator() > 0
        spread = result.policy[off].max() - result.policy[off].min()
        assert spread < 0.25  # no strong preference without heterogeneity

    def test_huge_alpha_still_feasible_via_rho_cap(self, full5, hetero_times5):
        """The rho-interval cap keeps the grid feasible even at absurd lr."""
        result = generate_policy(hetero_times5, full5.indicator(), 50.0)
        assert 0.0 < result.lambda2 < 1.0
        # Floors shrink proportionally so rows still sum to 1.
        np.testing.assert_allclose(result.policy.sum(axis=1), 1.0, atol=1e-9)

    def test_infeasible_raises(self, full5, hetero_times5, monkeypatch):
        """If every LP fails, Algorithm 3 reports PolicyGenerationError."""
        import repro.core.policy as policy_module

        monkeypatch.setattr(policy_module, "solve_policy_lp", lambda *a, **k: None)
        with pytest.raises(PolicyGenerationError, match="no feasible policy"):
            generate_policy(hetero_times5, full5.indicator(), 0.1)

    @pytest.mark.parametrize("kind", ["full", "ring", "star", "random", "expander"])
    def test_grid_winner_matches_highs_backed_search(
        self, kind, highs_policy_lp, monkeypatch
    ):
        """With distinct link times every grid point's optimum is unique, so
        Algorithm 3 over the closed form and over the solver it replaced
        pick the same ``(rho, t_bar)``."""
        import repro.core.policy as policy_module

        m = 9
        indicator = make_topology(kind, m, edge_probability=0.4, seed=3).indicator()
        times = np.random.default_rng(3).uniform(0.1, 3.0, (m, m))
        times = (times + times.T) / 2
        ours = generate_policy(times, indicator, 0.1, outer_rounds=6, inner_rounds=6)
        monkeypatch.setattr(policy_module, "solve_policy_lp", highs_policy_lp)
        reference = generate_policy(
            times, indicator, 0.1, outer_rounds=6, inner_rounds=6
        )
        assert (ours.rho, ours.t_bar) == (reference.rho, reference.t_bar)
        assert ours.candidates_evaluated == reference.candidates_evaluated
        np.testing.assert_allclose(ours.policy, reference.policy, atol=1e-9)
        assert ours.lambda2 == pytest.approx(reference.lambda2, abs=1e-9)

    def test_rejects_zero_neighbor_times(self, full5):
        times = np.zeros((5, 5))
        with pytest.raises(ValueError, match="positive"):
            generate_policy(times, full5.indicator(), 0.1)

    def test_rejects_bad_epsilon(self, full5, hetero_times5):
        with pytest.raises(ValueError, match="epsilon"):
            generate_policy(hetero_times5, full5.indicator(), 0.1, epsilon=2.0)

    def test_deterministic(self, full5, hetero_times5):
        a = generate_policy(hetero_times5, full5.indicator(), 0.1)
        b = generate_policy(hetero_times5, full5.indicator(), 0.1)
        np.testing.assert_array_equal(a.policy, b.policy)
        assert a.rho == b.rho


class TestUniformPolicy:
    def test_uniform_over_neighbors(self):
        topo = Topology.ring(5)
        policy = uniform_policy(topo.indicator())
        np.testing.assert_allclose(policy.sum(axis=1), 1.0)
        assert policy[0, 1] == pytest.approx(0.5)
        assert policy[0, 0] == 0.0

    def test_rejects_isolated_worker(self):
        indicator = np.zeros((3, 3))
        indicator[0, 1] = indicator[1, 0] = 1.0
        with pytest.raises(ValueError, match="neighbor"):
            uniform_policy(indicator)

"""Unit tests for the mixing-matrix algebra (Eq. 19-22)."""

import numpy as np
import pytest

from repro.core.mixing import (
    expected_mixing_matrix,
    gamma_matrix,
    is_doubly_stochastic,
    random_update_matrix,
    sampled_mixing_matrix,
    second_largest_eigenvalue,
)
from repro.core.policy import generate_policy, uniform_policy
from repro.graph import Topology


class TestGammaMatrix:
    def test_undirected_gamma_is_inverse_probability(self, full5):
        policy = uniform_policy(full5.indicator())
        gamma = gamma_matrix(policy, full5.indicator())
        # Uniform over 4 neighbors: p = 0.25, gamma = (1+1)/(2*0.25) = 4.
        off = full5.indicator() > 0
        np.testing.assert_allclose(gamma[off], 4.0)

    def test_zero_where_no_edge(self):
        topo = Topology.ring(4)
        policy = uniform_policy(topo.indicator())
        gamma = gamma_matrix(policy, topo.indicator())
        assert gamma[0, 2] == 0.0  # not adjacent in a 4-ring

    def test_rejects_mass_on_non_edges(self):
        topo = Topology.ring(4)
        policy = np.full((4, 4), 0.25)
        with pytest.raises(ValueError, match="non-edges"):
            gamma_matrix(policy, topo.indicator())

    def test_rejects_bad_row_sums(self, full5):
        policy = uniform_policy(full5.indicator()) * 0.5
        with pytest.raises(ValueError, match="sum to 1"):
            gamma_matrix(policy, full5.indicator())


class TestRandomUpdateMatrix:
    def test_identity_for_self_selection(self):
        np.testing.assert_array_equal(
            random_update_matrix(4, 2, 2, 0.1, 1.0, 0.0), np.eye(4)
        )

    def test_row_update_structure(self):
        update = random_update_matrix(3, 0, 1, alpha=0.1, rho=1.0, gamma_im=2.0)
        expected = np.eye(3)
        expected[0, 0] -= 0.2
        expected[0, 1] += 0.2
        np.testing.assert_allclose(update, expected)

    def test_rows_sum_to_one(self):
        update = random_update_matrix(5, 1, 3, 0.05, 2.0, 3.0)
        np.testing.assert_allclose(update.sum(axis=1), 1.0)


class TestExpectedMixingMatrix:
    def test_symmetric(self, full5, hetero_times5, rng):
        result = generate_policy(hetero_times5, full5.indicator(), 0.1)
        mixing = expected_mixing_matrix(result.policy, full5.indicator(), 0.1, result.rho)
        np.testing.assert_allclose(mixing, mixing.T, atol=1e-12)

    def test_feasible_policy_gives_doubly_stochastic(self, full5, hetero_times5):
        """Lemma 1 + Lemma 2: any Algorithm 3 policy yields doubly stochastic Y_P."""
        result = generate_policy(hetero_times5, full5.indicator(), 0.1)
        mixing = expected_mixing_matrix(result.policy, full5.indicator(), 0.1, result.rho)
        assert is_doubly_stochastic(mixing, atol=1e-6)

    def test_largest_eigenvalue_is_one(self, full5, hetero_times5):
        result = generate_policy(hetero_times5, full5.indicator(), 0.1)
        mixing = expected_mixing_matrix(result.policy, full5.indicator(), 0.1, result.rho)
        eigenvalues = np.linalg.eigvalsh(mixing)
        assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-8)

    def test_second_eigenvalue_strictly_below_one(self, full5, hetero_times5):
        """Theorem 3: lambda_2 < 1 for any feasible policy."""
        result = generate_policy(hetero_times5, full5.indicator(), 0.1)
        mixing = expected_mixing_matrix(result.policy, full5.indicator(), 0.1, result.rho)
        assert second_largest_eigenvalue(mixing) < 1.0 - 1e-6

    def test_matches_monte_carlo_sampling(self, full5, rng):
        """The closed form (Eq. 22) equals E[(D^k)^T D^k] by simulation."""
        policy = uniform_policy(full5.indicator())
        probs = np.full(5, 0.2)
        closed = expected_mixing_matrix(policy, full5.indicator(), 0.1, 1.0, probs)
        sampled = sampled_mixing_matrix(
            policy, full5.indicator(), 0.1, 1.0, probs, rng, num_samples=30000
        )
        np.testing.assert_allclose(closed, sampled, atol=0.01)

    def test_matches_monte_carlo_nonuniform_policy_and_probs(self, full5, rng):
        """Eq. (22) also holds off the doubly-stochastic manifold: skewed
        selection rows and non-uniform global-step probabilities."""
        policy = np.array([
            [0.1, 0.6, 0.1, 0.1, 0.1],
            [0.3, 0.1, 0.2, 0.2, 0.2],
            [0.1, 0.1, 0.5, 0.2, 0.1],
            [0.25, 0.25, 0.25, 0.0, 0.25],
            [0.2, 0.2, 0.2, 0.2, 0.2],
        ])
        probs = np.array([0.4, 0.2, 0.2, 0.1, 0.1])
        closed = expected_mixing_matrix(policy, full5.indicator(), 0.1, 0.8, probs)
        sampled = sampled_mixing_matrix(
            policy, full5.indicator(), 0.1, 0.8, probs, rng, num_samples=40000
        )
        np.testing.assert_allclose(closed, sampled, atol=0.02)
        # Not doubly stochastic here (rates are unequal), matching Theorem 1's
        # lambda = lambda_1 fallback case.
        assert np.allclose(closed, closed.T)

    def test_nonneighbor_entries_zero(self):
        topo = Topology.ring(5)
        policy = uniform_policy(topo.indicator())
        mixing = expected_mixing_matrix(policy, topo.indicator(), 0.1, 0.5)
        assert mixing[0, 2] == 0.0

    def test_invalid_worker_probs_rejected(self, full5):
        policy = uniform_policy(full5.indicator())
        with pytest.raises(ValueError, match="probability distribution"):
            expected_mixing_matrix(policy, full5.indicator(), 0.1, 1.0, np.ones(5))


class TestEigenHelpers:
    def test_second_largest_of_diag(self):
        assert second_largest_eigenvalue(np.diag([3.0, 2.0, 1.0])) == pytest.approx(2.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            second_largest_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_is_doubly_stochastic_true(self):
        matrix = np.full((3, 3), 1 / 3)
        assert is_doubly_stochastic(matrix)

    def test_is_doubly_stochastic_false_negative_entry(self):
        matrix = np.array([[1.5, -0.5], [-0.5, 1.5]])
        assert not is_doubly_stochastic(matrix)

    def test_is_doubly_stochastic_false_bad_rows(self):
        assert not is_doubly_stochastic(np.eye(3) * 0.5)

"""Unit tests for the convergence theory helpers (Theorems 1-3)."""

import pytest

from repro.core.convergence import (
    convergence_time,
    deviation_bound,
    iterations_to_epsilon,
    stable_lr_upper_bound,
)


class TestDeviationBound:
    def test_monotone_decreasing_in_k(self):
        bounds = [deviation_bound(0.9, k, 10.0, 0.1, 0.1) for k in (0, 10, 100, 1000)]
        assert bounds == sorted(bounds, reverse=True)

    def test_noise_floor_at_large_k(self):
        floor = 0.1**2 * 0.5**2 * 0.9 / 0.1
        assert deviation_bound(0.9, 10**6, 10.0, 0.1, 0.5) == pytest.approx(floor)

    def test_k_zero_includes_initial_deviation(self):
        assert deviation_bound(0.9, 0, 7.0, 0.1, 0.0) == pytest.approx(7.0)

    def test_zero_noise_decays_to_zero(self):
        assert deviation_bound(0.5, 100, 1.0, 0.1, 0.0) == pytest.approx(0.0, abs=1e-25)

    def test_smaller_lambda_smaller_bound(self):
        assert deviation_bound(0.5, 10, 1.0, 0.1, 0.1) < deviation_bound(0.99, 10, 1.0, 0.1, 0.1)

    def test_rejects_lambda_at_one(self):
        with pytest.raises(ValueError, match="lambda"):
            deviation_bound(1.0, 10, 1.0, 0.1, 0.1)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            deviation_bound(0.9, -1, 1.0, 0.1, 0.1)


class TestIterationsToEpsilon:
    def test_formula(self):
        assert iterations_to_epsilon(0.5, 0.25) == pytest.approx(2.0)

    def test_slower_mixing_needs_more_iterations(self):
        assert iterations_to_epsilon(0.99, 0.01) > iterations_to_epsilon(0.5, 0.01)

    @pytest.mark.parametrize("lam", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_lambda(self, lam):
        with pytest.raises(ValueError):
            iterations_to_epsilon(lam, 0.01)


class TestConvergenceTime:
    def test_product_structure(self):
        k = iterations_to_epsilon(0.9, 0.01)
        assert convergence_time(2.0, 0.9, 0.01) == pytest.approx(2.0 * k)

    def test_trade_off_visible(self):
        # Fast steps + slow mixing vs slow steps + fast mixing.
        fast_steps = convergence_time(0.1, 0.99, 0.01)
        slow_steps = convergence_time(1.0, 0.5, 0.01)
        assert fast_steps > slow_steps  # mixing wins in this configuration

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            convergence_time(0.0, 0.9, 0.01)


class TestStableLR:
    def test_formula(self):
        assert stable_lr_upper_bound(1.0, 3.0) == pytest.approx(0.5)

    def test_rejects_l_below_mu(self):
        with pytest.raises(ValueError):
            stable_lr_upper_bound(3.0, 1.0)


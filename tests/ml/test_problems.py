"""Unit tests for repro.ml.problems (quadratic consensus problems)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.problems import QuadraticProblem, make_consensus_quadratics


class TestQuadraticProblem:
    def test_loss_zero_at_target(self):
        problem = QuadraticProblem(np.eye(3), np.array([1.0, 2.0, 3.0]))
        problem.set_params(np.array([1.0, 2.0, 3.0]))
        assert problem.loss() == pytest.approx(0.0)

    def test_gradient_formula(self):
        matrix = np.diag([1.0, 4.0])
        problem = QuadraticProblem(matrix, np.zeros(2))
        problem.set_params(np.array([1.0, 1.0]))
        _, grad = problem.loss_and_grad()
        np.testing.assert_allclose(grad, [1.0, 4.0])

    def test_mu_and_lipschitz(self):
        problem = QuadraticProblem(np.diag([0.5, 2.0, 8.0]), np.zeros(3))
        assert problem.mu == pytest.approx(0.5)
        assert problem.lipschitz == pytest.approx(8.0)
        assert problem.stable_lr_upper_bound() == pytest.approx(2.0 / 8.5)

    def test_gradient_descent_converges_below_stable_lr(self):
        problem = QuadraticProblem(np.diag([1.0, 3.0]), np.array([2.0, -1.0]))
        problem.set_params(np.array([10.0, 10.0]))
        lr = problem.stable_lr_upper_bound() * 0.9
        for _ in range(300):
            _, grad = problem.loss_and_grad()
            problem.set_params(problem.get_params() - lr * grad)
        np.testing.assert_allclose(problem.get_params(), [2.0, -1.0], atol=1e-6)

    def test_noise_has_zero_mean(self):
        problem = QuadraticProblem(
            np.eye(2), np.zeros(2), noise_std=0.5, rng=np.random.default_rng(0)
        )
        problem.set_params(np.ones(2))
        grads = np.array([problem.loss_and_grad()[1] for _ in range(3000)])
        np.testing.assert_allclose(grads.mean(axis=0), [1.0, 1.0], atol=0.05)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticProblem(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticProblem(np.diag([1.0, -1.0]), np.zeros(2))

    def test_clone_preserves_state(self):
        problem = QuadraticProblem(np.eye(2), np.ones(2))
        problem.set_params(np.array([5.0, 6.0]))
        copy = problem.clone()
        np.testing.assert_allclose(copy.get_params(), [5.0, 6.0])

    def test_no_classification_interface(self):
        problem = QuadraticProblem(np.eye(2), np.zeros(2))
        with pytest.raises(NotImplementedError):
            problem.predict_logits(np.zeros((1, 2)))
        with pytest.raises(NotImplementedError):
            problem.accuracy()


def dense_reference(matrix, target, params, noise):
    """The dense formula: ``0.5 * diff @ A @ diff`` and ``A @ diff + noise``."""
    diff = params - target
    return 0.5 * float(diff @ matrix @ diff), matrix @ diff + noise


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestDiagonalCurvature:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 16).flatmap(lambda dim: st.tuples(
            st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim),
            st.lists(finite, min_size=dim, max_size=dim),
            st.lists(finite, min_size=dim, max_size=dim),
        )),
        st.sampled_from([0.0, 0.1, 3.0]),
        st.integers(0, 2**31 - 1),
    )
    def test_loss_and_grad_equal_the_dense_product_bit_for_bit(
        self, case, noise_std, seed
    ):
        curvature, target, params = (np.array(values) for values in case)
        matrix = np.diag(curvature)
        problem = QuadraticProblem(
            matrix, target, noise_std=noise_std, rng=np.random.default_rng(seed)
        )
        problem.set_params(params)
        loss, grad = problem.loss_and_grad()
        noise = (
            np.random.default_rng(seed).normal(0.0, noise_std, size=curvature.size)
            if noise_std else 0.0
        )
        ref_loss, ref_grad = dense_reference(matrix, target, params, noise)
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()
        assert problem.loss() == ref_loss
        assert problem.matrix.tobytes() == matrix.tobytes()

    def test_symmetric_non_diagonal_matrix_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            QuadraticProblem(np.array([[2.0, 0.5], [0.5, 2.0]]), np.zeros(2))


class TestMakeConsensusQuadratics:
    def test_counts_and_shapes(self, rng):
        problems, x_star = make_consensus_quadratics(4, 3, rng)
        assert len(problems) == 4
        assert x_star.shape == (3,)

    def test_x_star_is_mean_of_targets(self, rng):
        problems, x_star = make_consensus_quadratics(5, 2, rng)
        targets = np.array([p.target for p in problems])
        np.testing.assert_allclose(x_star, targets.mean(axis=0))

    def test_x_star_minimizes_total_loss(self, rng):
        problems, x_star = make_consensus_quadratics(3, 2, rng)

        def total(x):
            return sum(
                0.5 * (x - p.target) @ p.matrix @ (x - p.target) for p in problems
            )

        base = total(x_star)
        for delta in [np.array([0.01, 0.0]), np.array([0.0, -0.01])]:
            assert total(x_star + delta) > base

    def test_condition_number_applied(self, rng):
        problems, _ = make_consensus_quadratics(2, 4, rng, condition_number=16.0)
        assert problems[0].lipschitz / problems[0].mu == pytest.approx(16.0)

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            make_consensus_quadratics(0, 2, rng)
        with pytest.raises(ValueError):
            make_consensus_quadratics(2, 0, rng)
        with pytest.raises(ValueError):
            make_consensus_quadratics(2, 2, rng, condition_number=0.5)

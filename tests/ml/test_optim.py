"""Unit tests for repro.ml.optim."""

import numpy as np
import pytest

from repro.ml.optim import (
    ConstantLR,
    PlateauDecayLR,
    SGDConfig,
    SGDState,
    StepDecayLR,
)


class TestConstantLR:
    def test_constant(self):
        schedule = ConstantLR(0.01)
        assert schedule.lr(0) == schedule.lr(100) == 0.01

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantLR(0.0)


class TestStepDecayLR:
    def test_decays_at_milestones(self):
        schedule = StepDecayLR(0.1, milestones=(10, 20))
        assert schedule.lr(5) == pytest.approx(0.1)
        assert schedule.lr(10) == pytest.approx(0.01)
        assert schedule.lr(25) == pytest.approx(0.001)

    def test_milestones_sorted_internally(self):
        schedule = StepDecayLR(0.1, milestones=(20, 10))
        assert schedule.lr(15) == pytest.approx(0.01)

    def test_rejects_negative_milestone(self):
        with pytest.raises(ValueError, match="milestones"):
            StepDecayLR(0.1, milestones=(-1,))


class TestPlateauDecayLR:
    def test_no_decay_while_improving(self):
        schedule = PlateauDecayLR(0.1)
        for loss in [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4]:
            schedule.observe_loss(loss)
        assert schedule.lr(0) == pytest.approx(0.1)

    def test_decays_after_patience_stalls(self):
        schedule = PlateauDecayLR(0.1)
        schedule.observe_loss(1.0)
        for _ in range(PlateauDecayLR.patience - 1):
            schedule.observe_loss(1.0)  # no improvement
        assert schedule.lr(0) == pytest.approx(0.1)
        schedule.observe_loss(1.0)
        assert schedule.lr(0) == pytest.approx(0.01)

    def test_respects_min_lr(self):
        schedule = PlateauDecayLR(0.1)
        schedule.observe_loss(1.0)
        for _ in range(10 * PlateauDecayLR.patience):
            schedule.observe_loss(1.0)
        assert schedule.lr(0) == pytest.approx(PlateauDecayLR.min_lr)

    def test_improvement_resets_stall_counter(self):
        schedule = PlateauDecayLR(0.1)
        stalls = PlateauDecayLR.patience - 1
        schedule.observe_loss(1.0)
        for _ in range(stalls):
            schedule.observe_loss(1.0)
        schedule.observe_loss(0.5)  # improvement resets
        for _ in range(stalls):
            schedule.observe_loss(0.5 - PlateauDecayLR.min_delta / 2)  # too small
        assert schedule.lr(0) == pytest.approx(0.1)


class TestSGDConfig:
    def test_defaults_match_paper(self):
        config = SGDConfig()
        assert config.momentum == 0.9
        assert config.weight_decay == 1e-4

    @pytest.mark.parametrize("momentum", [-0.1, 1.0])
    def test_invalid_momentum(self, momentum):
        with pytest.raises(ValueError, match="momentum"):
            SGDConfig(momentum=momentum)

    def test_invalid_weight_decay(self):
        with pytest.raises(ValueError, match="weight_decay"):
            SGDConfig(weight_decay=-1.0)


class TestSGDState:
    def test_plain_sgd_step(self):
        state = SGDState(SGDConfig(momentum=0.0, weight_decay=0.0), dim=2)
        params = np.array([1.0, 2.0])
        grad = np.array([0.5, -0.5])
        out = state.step(params, grad, lr=0.1)
        np.testing.assert_allclose(out, [0.95, 2.05])

    def test_momentum_accumulates(self):
        state = SGDState(SGDConfig(momentum=0.9, weight_decay=0.0), dim=1)
        params = np.zeros(1)
        grad = np.ones(1)
        params = state.step(params, grad, lr=1.0)  # v=1 -> -1
        np.testing.assert_allclose(params, [-1.0])
        params = state.step(params, grad, lr=1.0)  # v=1.9 -> -2.9
        np.testing.assert_allclose(params, [-2.9])

    def test_weight_decay_pulls_to_zero(self):
        state = SGDState(SGDConfig(momentum=0.0, weight_decay=0.1), dim=1)
        out = state.step(np.array([1.0]), np.zeros(1), lr=1.0)
        np.testing.assert_allclose(out, [0.9])

    def test_matches_pytorch_semantics(self):
        """Decoupled reference implementation of torch.optim.SGD."""
        config = SGDConfig(momentum=0.9, weight_decay=0.01)
        state = SGDState(config, dim=3)
        rng = np.random.default_rng(0)
        params = rng.normal(size=3)
        velocity = np.zeros(3)
        reference = params.copy()
        for _ in range(5):
            grad = rng.normal(size=3)
            out = state.step(params, grad, lr=0.05)
            g = grad + 0.01 * reference
            velocity = 0.9 * velocity + g
            reference = reference - 0.05 * velocity
            np.testing.assert_allclose(out, reference, atol=1e-12)
            params = out

    def test_negative_lr_rejected(self):
        state = SGDState(SGDConfig(), dim=1)
        with pytest.raises(ValueError, match="learning rate"):
            state.step(np.zeros(1), np.zeros(1), lr=-0.1)

    def test_reset_clears_velocity(self):
        state = SGDState(SGDConfig(momentum=0.9, weight_decay=0.0), dim=1)
        state.step(np.zeros(1), np.ones(1), lr=1.0)
        state.reset()
        out = state.step(np.zeros(1), np.ones(1), lr=1.0)
        np.testing.assert_allclose(out, [-1.0])  # no momentum carry-over

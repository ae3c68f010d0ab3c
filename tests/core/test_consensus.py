"""Unit tests for the Algorithm 2 worker state machine."""

import numpy as np
import pytest

from repro.core.consensus import ConsensusWorker
from repro.ml.optim import SGDConfig
from repro.ml.problems import QuadraticProblem


def make_worker(worker_id=0, num_workers=4, rho=0.5, beta=0.8, probabilities=None,
                momentum=0.0, weight_decay=0.0, seed=0):
    model = QuadraticProblem(np.eye(2), np.zeros(2))
    model.set_params(np.array([1.0, 1.0]))
    neighbors = np.array([m for m in range(num_workers) if m != worker_id])
    return ConsensusWorker(
        worker_id=worker_id,
        model=model,
        neighbors=neighbors,
        num_workers=num_workers,
        rho=rho,
        sgd=SGDConfig(momentum=momentum, weight_decay=weight_decay),
        beta=beta,
        rng=np.random.default_rng(seed),
        probabilities=probabilities,
    )


class TestInitialization:
    def test_default_probabilities_uniform_over_neighbors(self):
        worker = make_worker()
        np.testing.assert_allclose(worker.probabilities[[1, 2, 3]], 1 / 3)
        assert worker.probabilities[0] == 0.0

    def test_rejects_zero_rho(self):
        with pytest.raises(ValueError, match="rho"):
            make_worker(rho=0.0)

    def test_rejects_self_neighbor(self):
        model = QuadraticProblem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="neighbor itself"):
            ConsensusWorker(0, model, np.array([0, 1]), 3, 0.5, SGDConfig(),
                            0.8, np.random.default_rng(0))

    def test_rejects_probabilities_on_non_neighbors(self):
        model = QuadraticProblem(np.eye(2), np.zeros(2))
        bad = np.array([0.0, 0.5, 0.5, 0.0])  # worker 3 not a neighbor
        with pytest.raises(ValueError, match="non-neighbors"):
            ConsensusWorker(0, model, np.array([1]), 4, 0.5, SGDConfig(),
                            0.8, np.random.default_rng(0), probabilities=bad)


class TestPolicyLifecycle:
    def test_stage_then_adopt(self):
        worker = make_worker()
        row = np.array([0.1, 0.6, 0.2, 0.1])
        worker.stage_policy(row, rho=0.7)
        assert worker.rho == 0.5  # not yet applied (Algorithm 2 lines 5-8)
        assert worker.adopt_pending_policy()
        np.testing.assert_allclose(worker.probabilities, row)
        assert worker.rho == 0.7

    def test_adopt_without_pending_is_noop(self):
        worker = make_worker()
        assert not worker.adopt_pending_policy()

    def test_staged_policy_validated_immediately(self):
        worker = make_worker()
        with pytest.raises(ValueError, match="sum to 1"):
            worker.stage_policy(np.array([0.5, 0.1, 0.1, 0.1]), rho=0.5)


class TestChoosePeer:
    def test_respects_distribution(self):
        row = np.array([0.0, 1.0, 0.0, 0.0])
        worker = make_worker(probabilities=row)
        assert all(worker.choose_peer() == 1 for _ in range(20))

    def test_self_selection_possible(self):
        row = np.array([1.0, 0.0, 0.0, 0.0])
        worker = make_worker(probabilities=row)
        assert worker.choose_peer() == 0

    def test_empirical_frequencies(self):
        row = np.array([0.0, 0.7, 0.2, 0.1])
        worker = make_worker(probabilities=row, seed=42)
        draws = np.array([worker.choose_peer() for _ in range(4000)])
        freq = np.bincount(draws, minlength=4) / 4000
        np.testing.assert_allclose(freq, row, atol=0.03)


class TestUpdates:
    def test_local_gradient_step(self):
        worker = make_worker()
        worker.local_gradient_step(np.array([1.0, -1.0]), lr=0.1)
        np.testing.assert_allclose(worker.model.get_params(), [0.9, 1.1])
        assert worker.local_step == 1

    def test_pull_update_formula(self):
        """x <- x - lr * rho/2 * 2/p * (x - x_m), i.e. a (lr*rho/p) blend."""
        row = np.array([0.0, 0.5, 0.25, 0.25])
        worker = make_worker(probabilities=row, rho=0.5)
        peer_params = np.array([3.0, 3.0])
        worker.pull_update(1, peer_params, lr=0.1)
        coefficient = 0.1 * 0.5 / 0.5  # = 0.1
        expected = (1 - coefficient) * np.array([1.0, 1.0]) + coefficient * peer_params
        np.testing.assert_allclose(worker.model.get_params(), expected)

    def test_low_probability_peer_gets_higher_weight(self):
        row = np.array([0.0, 0.8, 0.1, 0.1])
        high = make_worker(probabilities=row, rho=0.4)
        low = make_worker(probabilities=row, rho=0.4)
        peer_params = np.array([2.0, 2.0])
        high.pull_update(1, peer_params, lr=0.1)  # p=0.8 -> weight 0.05
        low.pull_update(2, peer_params, lr=0.1)  # p=0.1 -> weight 0.4
        move_high = np.linalg.norm(high.model.get_params() - np.array([1.0, 1.0]))
        move_low = np.linalg.norm(low.model.get_params() - np.array([1.0, 1.0]))
        assert move_low > move_high

    def test_pull_coefficient_clipped(self):
        row = np.array([0.0, 0.01, 0.495, 0.495])
        worker = make_worker(probabilities=row, rho=0.5)
        worker.pull_update(1, np.array([5.0, 5.0]), lr=1.0)  # raw coeff = 50
        assert worker.clip_events == 1
        # Clipped blend stays on the segment between old and peer params.
        assert np.all(worker.model.get_params() <= 5.0)

    def test_pull_from_self_rejected(self):
        worker = make_worker()
        with pytest.raises(ValueError, match="real peer"):
            worker.pull_update(0, np.zeros(2), lr=0.1)

    def test_pull_from_zero_probability_peer_rejected(self):
        row = np.array([0.0, 1.0, 0.0, 0.0])
        worker = make_worker(probabilities=row)
        with pytest.raises(ValueError, match="zero probability"):
            worker.pull_update(2, np.zeros(2), lr=0.1)


class TestTimeTracking:
    def test_record_and_vector(self):
        worker = make_worker(beta=0.5)
        worker.record_time(1, 2.0)
        worker.record_time(1, 4.0)
        vector = worker.time_vector()
        assert vector[1] == pytest.approx(3.0)  # 0.5*2 + 0.5*4
        assert np.isnan(vector[2])

    def test_has_measured_all_neighbors(self):
        worker = make_worker()
        assert not worker.has_measured_all_neighbors()
        for peer in (1, 2, 3):
            worker.record_time(peer, 1.0)
        assert worker.has_measured_all_neighbors()

    def test_self_time_not_required_for_coverage(self):
        worker = make_worker()
        for peer in (1, 2, 3):
            worker.record_time(peer, 1.0)
        assert worker.has_measured_all_neighbors()
        assert np.isnan(worker.time_vector()[0])

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            make_worker().record_time(1, -1.0)


class TestActiveMask:
    def test_no_mask_keeps_policy_row(self):
        worker = make_worker()
        assert worker.effective_probabilities is worker.probabilities

    def test_all_true_mask_matches_policy_row(self):
        worker = make_worker()
        worker.set_reachable(np.ones(4, dtype=bool))
        np.testing.assert_allclose(
            worker.effective_probabilities, worker.probabilities
        )

    def test_mask_renormalizes_over_active_peers(self):
        worker = make_worker()
        worker.stage_policy(np.array([0.1, 0.6, 0.2, 0.1]), rho=0.5)
        worker.adopt_pending_policy()
        mask = np.array([True, False, True, True])  # peer 1 departed
        worker.set_reachable(mask)
        effective = worker.effective_probabilities
        assert effective[1] == 0.0
        np.testing.assert_allclose(effective.sum(), 1.0)
        np.testing.assert_allclose(effective[[0, 2, 3]], [0.25, 0.5, 0.25])
        # The underlying policy row is untouched (restored on rejoin).
        np.testing.assert_allclose(worker.probabilities, [0.1, 0.6, 0.2, 0.1])
        worker.set_reachable(None)
        np.testing.assert_allclose(worker.effective_probabilities, worker.probabilities)

    def test_departed_peers_never_selected(self):
        worker = make_worker()
        worker.set_reachable(np.array([True, False, True, False]))
        picks = {worker.choose_peer() for _ in range(200)}
        assert 1 not in picks and 3 not in picks

    def test_all_peers_departed_degenerates_to_self(self):
        worker = make_worker()
        worker.set_reachable(np.array([True, False, False, False]))
        assert all(worker.choose_peer() == 0 for _ in range(20))

    def test_pull_weight_uses_effective_probability(self):
        worker = make_worker(rho=0.1)
        worker.set_reachable(np.array([True, True, True, False]))
        before = worker.model.get_params().copy()
        peer_params = np.array([0.0, 0.0])
        worker.pull_update(1, peer_params, lr=0.1)
        # coefficient = lr * rho / p_eff with p_eff = 0.5 (not 1/3)
        expected = before - (0.1 * 0.1 / 0.5) * (before - peer_params)
        np.testing.assert_allclose(worker.model.get_params(), expected)

    def test_pull_from_masked_peer_rejected(self):
        worker = make_worker()
        worker.set_reachable(np.array([True, False, True, True]))
        with pytest.raises(ValueError, match="zero probability"):
            worker.pull_update(1, np.zeros(2), lr=0.1)

    def test_bad_mask_shape_rejected(self):
        worker = make_worker()
        with pytest.raises(ValueError, match="shape"):
            worker.set_reachable(np.ones(3, dtype=bool))

    def test_edge_mask_renormalizes_like_active_mask(self):
        worker = make_worker()
        worker.stage_policy(np.array([0.1, 0.6, 0.2, 0.1]), rho=0.5)
        worker.adopt_pending_policy()
        worker.set_reachable(np.array([True, False, True, True]))  # edge 0-1 down
        effective = worker.effective_probabilities
        assert effective[1] == 0.0
        np.testing.assert_allclose(effective[[0, 2, 3]], [0.25, 0.5, 0.25])
        # The policy row is untouched: an edge repair restores it.
        worker.set_reachable(None)
        np.testing.assert_allclose(
            worker.effective_probabilities, worker.probabilities
        )

    def test_edge_and_active_masks_compose(self):
        worker = make_worker()
        active = np.array([True, False, True, True])  # 1 departed
        edges = np.array([True, True, True, False])  # edge 0-3 down
        worker.set_reachable(active & edges)  # the trainer composes the two
        effective = worker.effective_probabilities
        assert effective[1] == 0.0 and effective[3] == 0.0
        np.testing.assert_allclose(effective[2], 1.0)
        picks = {worker.choose_peer() for _ in range(50)}
        assert picks <= {2}

    def test_all_edges_down_degenerates_to_self(self):
        worker = make_worker()
        worker.set_reachable(np.array([True, False, False, False]))
        assert all(worker.choose_peer() == 0 for _ in range(20))

    def test_bad_edge_mask_shape_rejected(self):
        worker = make_worker()
        with pytest.raises(ValueError, match="shape"):
            worker.set_reachable(np.ones(3, dtype=bool))

    def test_self_stays_allowed_and_callers_mask_is_untouched(self):
        worker = make_worker()
        mask = np.zeros(4, dtype=bool)  # nobody reachable, self slot unset
        worker.set_reachable(mask)
        assert not mask.any()
        np.testing.assert_array_equal(worker.effective_probabilities, [1, 0, 0, 0])

    def test_pull_update_honors_selection_time_probability(self):
        """A churn transition between selection and pull completion must not
        change the 1/p debias weight: the caller passes the probability the
        peer was actually drawn with."""
        worker = make_worker(rho=0.1)
        worker.set_reachable(np.array([True, True, True, False]))
        p_selected = float(worker.effective_probabilities[1])  # 0.5
        worker.set_reachable(None)  # mid-flight rejoin: row reverts to 1/3
        before = worker.model.get_params().copy()
        worker.pull_update(1, np.zeros(2), lr=0.1, p_im=p_selected)
        expected = before - (0.1 * 0.1 / 0.5) * before
        np.testing.assert_allclose(worker.model.get_params(), expected)

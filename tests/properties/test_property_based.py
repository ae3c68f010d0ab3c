"""Property-based tests (hypothesis) for core invariants.

These cover the load-bearing mathematical properties:

- Theorem 3's structural claims (Y_P doubly stochastic, symmetric,
  non-negative, lambda_2 < 1) for *arbitrary* feasible policies, not just
  the ones Algorithm 3 happens to output;
- LP feasibility: every solution of Eq. (14) satisfies Eq. (10)-(13);
- the closed-form Eq. (14) solve against scipy's HiGHS as the oracle:
  constraints to round-off, objective never worse, feasibility agreed,
  permutation-equivariant, uniform on tied times;
- the batched Algorithm 3 search against a point-by-point reference, bit
  for bit, on batches of mixed-size problems (and the stacked ``eigvalsh``
  it relies on against one call per matrix);
- partitioners: exact cover / label exclusion for random datasets;
- EMA: output stays within observed bounds;
- event engine: execution order is sorted by time regardless of insertion.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.mixing import (
    expected_mixing_matrix,
    is_doubly_stochastic,
    second_largest_eigenvalue,
)
from repro.core.policy import (
    _STRICT_MARGIN,
    generate_policies,
    quantize_times,
    solve_policy_lp,
    t_interval,
)
from repro.datasets.partition import partition_drop_labels, partition_uniform
from repro.datasets.synthetic import make_classification
from repro.graph import Topology
from repro.graph.topology import make_topology
from repro.ml.metrics import ExponentialMovingAverage
from repro.simulation.engine import Simulator

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

workers = st.integers(min_value=3, max_value=7)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def random_times(num_workers: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    times = np.exp(rng.uniform(np.log(0.05), np.log(5.0), (num_workers, num_workers)))
    times = (times + times.T) / 2
    np.fill_diagonal(times, 0.01)
    return times


# ---------------------------------------------------------------------------
# Mixing-matrix properties (Theorem 3 structure)
# ---------------------------------------------------------------------------


class TestMixingProperties:
    @given(m=workers, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_feasible_lp_policy_yields_doubly_stochastic_mixing(self, m, seed):
        topology = Topology.fully_connected(m)
        indicator = topology.indicator()
        times = random_times(m, seed)
        alpha = 0.1
        # Choose rho safely inside the feasible band for this graph.
        rho = 1.0 / (4.0 * alpha * (m - 1))
        lower, upper = t_interval(times, indicator, alpha, rho)
        if lower > upper:
            return  # infeasible rho for this draw; nothing to check
        policy = solve_policy_lp(times, indicator, alpha, rho, (lower + upper) / 2)
        if policy is None:
            return
        mixing = expected_mixing_matrix(policy, indicator, alpha, rho)
        assert np.allclose(mixing, mixing.T, atol=1e-9)
        assert is_doubly_stochastic(mixing, atol=1e-6)
        assert np.all(mixing >= -1e-9)
        lambda2 = second_largest_eigenvalue(mixing)
        assert lambda2 < 1.0 - 1e-9

    @given(m=workers, seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_lp_solution_satisfies_constraints(self, m, seed):
        topology = Topology.fully_connected(m)
        indicator = topology.indicator()
        times = random_times(m, seed)
        alpha = 0.1
        rho = 1.0 / (4.0 * alpha * (m - 1))
        lower, upper = t_interval(times, indicator, alpha, rho)
        if lower > upper:
            return
        t_bar = lower + 0.37 * (upper - lower)
        policy = solve_policy_lp(times, indicator, alpha, rho, t_bar)
        if policy is None:
            return
        # Eq. 13 / Eq. 11 / Eq. 10 in turn.
        assert np.allclose(policy.sum(axis=1), 1.0, atol=1e-8)
        off = indicator > 0
        assert np.all(policy[off] >= 2 * alpha * rho - 1e-9)
        mean_times = np.sum(times * policy * indicator, axis=1)
        assert np.allclose(mean_times, m * t_bar, rtol=1e-5)


# ---------------------------------------------------------------------------
# The closed-form Eq. (14) solve against the HiGHS oracle
# ---------------------------------------------------------------------------


lp_draws = st.tuples(
    st.sampled_from(["full", "ring", "star", "random", "expander"]),
    st.integers(min_value=2, max_value=24),  # workers
    seeds,
    st.sampled_from([1.0, 3.0, 10.0, 100.0]),  # slowest / fastest link
    st.booleans(),  # round times to one significant digit, so neighbors tie
    st.sampled_from([0.01, 0.1, 0.3]),  # alpha
    st.floats(0.05, 1.0),  # rho, as a fraction of generate_policy's cap
    st.floats(-0.1, 1.1),  # t_bar's place in [L, U]; infeasible past the ends
)


def lp_case(kind, m, seed, spread, coarse, alpha, rho_fraction, t_fraction):
    """``(times, indicator, alpha, rho, t_bar)`` from one ``lp_draws`` draw."""
    try:
        topology = make_topology(kind, m, edge_probability=0.4, seed=seed)
    except ValueError:
        topology = Topology.fully_connected(m)  # e.g. a ring on 2 workers
    indicator = topology.indicator()
    rng = np.random.default_rng(seed)
    times = 0.05 * np.exp(rng.uniform(0.0, np.log(spread), (m, m)))
    times = (times + times.T) / 2
    if coarse:
        times = quantize_times(times, digits=1)
    # generate_policy's own cap on rho: L(rho) <= U.
    floor_cost = np.max(alpha / m * np.sum(times * 2 * indicator, axis=1))
    upper_t = np.min(np.max(times * indicator, axis=1) / m)
    rho = rho_fraction * min(0.5 / alpha, upper_t / floor_cost)
    lower, upper = t_interval(times, indicator, alpha, rho)
    t_bar = lower + t_fraction * (upper - lower)
    assume(t_bar > 0)
    return times, indicator, alpha, rho, t_bar


def _residuals(times, indicator, alpha, rho, t_bar):
    """Per worker: the Eq. (11) floors, and how far inside its feasible
    range ``[0, S max_m t_im]`` the time budget left after paying them sits
    (negative outside), in units of ``max(1, M t_bar)`` -- HiGHS's own
    feasibility tolerance is absolute."""
    m = times.shape[0]
    floors = alpha * rho * (1.0 + _STRICT_MARGIN) * 2 * indicator
    mass = 1.0 - floors.sum(axis=1)
    time_left = m * t_bar - (times * floors).sum(axis=1)
    slowest = (times * indicator).max(axis=1)
    inside = np.minimum(time_left, mass * slowest - time_left) / max(1.0, m * t_bar)
    return floors, np.minimum(inside, mass)


def _row_objectives(times, indicator, policy):
    """``p_ii + sum_m c_im p_im`` with the documented tie-break weights."""
    neighbor_times = times * indicator
    cost = 1e-3 * (neighbor_times / neighbor_times.max(axis=1, keepdims=True)) ** 2
    return np.diag(policy) + (cost * policy).sum(axis=1)


class TestClosedFormPolicyLP:
    @given(draw=lp_draws)
    @settings(max_examples=80, deadline=None)
    def test_matches_highs_oracle(self, draw, highs_policy_lp):
        times, indicator, alpha, rho, t_bar = lp_case(*draw)
        m = times.shape[0]
        policy = solve_policy_lp(times, indicator, alpha, rho, t_bar)
        oracle = highs_policy_lp(times, indicator, alpha, rho, t_bar)
        floors, inside = _residuals(times, indicator, alpha, rho, t_bar)
        # Feasibility is agreed wherever the budget is not on a boundary.
        if inside.min() > 1e-6:
            assert policy is not None and oracle is not None
        elif inside.min() < -1e-6:
            assert policy is None and oracle is None
        if policy is None:
            return
        edges = indicator > 0
        # Eq. 13, Eq. 12, Eq. 11, Eq. 10 in turn -- to round-off off the
        # boundary, to the clamp's tolerance on it.
        tol = 1e-12 if inside.min() > 1e-6 else 1e-8
        np.testing.assert_allclose(policy.sum(axis=1), 1.0, rtol=0, atol=tol)
        assert np.all(policy[~edges & ~np.eye(m, dtype=bool)] == 0.0)
        assert np.all(policy[edges] >= floors[edges]) and np.all(np.diag(policy) >= 0)
        np.testing.assert_allclose(
            (times * indicator * policy).sum(axis=1), m * t_bar, rtol=tol
        )
        # At most two entries leave their floor (one of them may be p_ii)
        # wherever a worker's neighbor times are distinct.
        raised = (policy > floors * (1 + 1e-9) + 1e-15) & edges
        for i in range(m):
            row_times = times[i, edges[i]]
            if np.unique(row_times).size == row_times.size:
                assert raised[i].sum() + (policy[i, i] > 1e-15) <= 2
        # Never worse than HiGHS; HiGHS is within its own tolerances of us.
        if oracle is not None and inside.min() > 1e-6:
            objective = _row_objectives(times, indicator, policy)
            reference = _row_objectives(times, indicator, oracle)
            assert np.all(objective <= reference + 1e-12)
            assert np.all(objective >= reference - 1e-6)

    @given(draw=lp_draws, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_relabeling_workers_permutes_the_policy(self, draw, seed):
        times, indicator, alpha, rho, t_bar = lp_case(*draw)
        policy = solve_policy_lp(times, indicator, alpha, rho, t_bar)
        order = np.random.default_rng(seed).permutation(times.shape[0])
        shuffle = np.ix_(order, order)
        shuffled = solve_policy_lp(
            times[shuffle], indicator[shuffle], alpha, rho, t_bar
        )
        if policy is None or shuffled is None:
            # Only a budget on the boundary may round either way.
            _, inside = _residuals(times, indicator, alpha, rho, t_bar)
            assert (policy is None and shuffled is None) or abs(inside.min()) < 1e-6
            return
        np.testing.assert_allclose(shuffled, policy[shuffle], rtol=0, atol=1e-12)

    @given(draw=lp_draws)
    @settings(max_examples=40, deadline=None)
    def test_tied_times_give_uniform_rows(self, draw):
        kind, m, seed, _, _, alpha, rho_fraction, _ = draw
        times, indicator, alpha, rho, t_bar = lp_case(
            kind, m, seed, 1.0, False, alpha, 0.9 * rho_fraction, 0.5
        )
        policy = solve_policy_lp(times, indicator, alpha, rho, t_bar)
        assert policy is not None
        for i in range(times.shape[0]):
            row = policy[i, indicator[i] > 0]
            np.testing.assert_allclose(row, row[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# The batched grid search against the point-by-point reference
# ---------------------------------------------------------------------------

search_problems = st.tuples(
    st.sampled_from(["full", "ring", "star", "random", "expander"]),
    # Rows of 8 or more entries take numpy's blocked pairwise sums.
    st.one_of(st.integers(min_value=2, max_value=12),
              st.integers(min_value=16, max_value=40)),
    seeds,
    st.sampled_from([1.0, 3.0, 100.0]),  # slowest / fastest link
    st.booleans(),  # round times to one significant digit, so neighbors tie
)


def search_problem(kind, m, seed, spread, coarse):
    """``(times, indicator)`` from one ``search_problems`` draw."""
    try:
        topology = make_topology(kind, m, edge_probability=0.4, seed=seed)
    except ValueError:
        topology = Topology.fully_connected(m)
    rng = np.random.default_rng(seed)
    times = 0.05 * np.exp(rng.uniform(0.0, np.log(spread), (m, m)))
    times = (times + times.T) / 2
    if coarse:
        times = quantize_times(times, digits=1)
    return times, topology.indicator()


def _same_result(ours, reference):
    if ours is None or reference is None:
        return ours is None and reference is None
    return (
        ours.policy.tobytes() == reference.policy.tobytes()
        and (ours.rho, ours.t_bar, ours.lambda2, ours.predicted_convergence_time)
        == (reference.rho, reference.t_bar, reference.lambda2,
            reference.predicted_convergence_time)
        and (ours.candidates_evaluated, ours.candidates_infeasible)
        == (reference.candidates_evaluated, reference.candidates_infeasible)
    )


class TestBatchedSearch:
    @given(
        draws=st.lists(search_problems, min_size=1, max_size=4),
        alpha=st.sampled_from([0.01, 0.1, 0.3]),
        outer=st.integers(min_value=1, max_value=6),
        inner=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    # Grids on which numpy's array ``** 2`` (``x * x``) and the scalar power
    # disagree in the last bit of some ``(alpha * rho) ** 2``.
    @example(draws=[("full", 3, 32756106, 3.0, True)], alpha=0.01, outer=4, inner=3)
    @example(draws=[("random", 3, 1339173415, 3.0, False)], alpha=0.3, outer=6,
             inner=2)
    def test_matches_point_by_point_search(
        self, draws, alpha, outer, inner, reference_policy_search
    ):
        problems = [search_problem(*draw) for draw in draws]
        results = generate_policies(
            [times for times, _ in problems],
            [indicator for _, indicator in problems],
            alpha, outer, inner,
        )
        for (times, indicator), ours in zip(problems, results):
            reference = reference_policy_search(times, indicator, alpha, outer, inner)
            assert _same_result(ours, reference)

    @given(m=st.integers(min_value=2, max_value=40),
           count=st.integers(min_value=1, max_value=6), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_stacked_eigvalsh_is_per_matrix_eigvalsh(self, m, count, seed):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(-1.0, 1.0, (count, m, m))
        stack = stack + np.swapaxes(stack, 1, 2)
        stacked = np.linalg.eigvalsh(stack)
        for matrix, values in zip(stack, stacked):
            assert np.linalg.eigvalsh(matrix).tobytes() == values.tobytes()

    @given(draw=lp_draws)
    @settings(max_examples=60, deadline=None)
    def test_scalar_entry_points_are_stacks_of_one(
        self, draw, reference_lp, reference_mixing
    ):
        times, indicator, alpha, rho, t_bar = lp_case(*draw)
        policy = solve_policy_lp(times, indicator, alpha, rho, t_bar)
        reference = reference_lp(times, indicator, alpha, rho, t_bar)
        assert (policy is None) == (reference is None)
        if policy is None:
            return
        assert policy.tobytes() == reference.tobytes()
        mixing = expected_mixing_matrix(policy, indicator, alpha, rho)
        assert mixing.tobytes() == reference_mixing(
            policy, indicator, alpha, rho
        ).tobytes()


# ---------------------------------------------------------------------------
# Partitioner properties
# ---------------------------------------------------------------------------


class TestPartitionProperties:
    @given(
        n=st.integers(min_value=20, max_value=200),
        m=st.integers(min_value=1, max_value=10),
        seed=seeds,
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform_partition_exact_cover(self, n, m, seed):
        rng = np.random.default_rng(seed)
        dataset = make_classification(n, 3, 4, rng)
        if n < m:
            return
        shards = partition_uniform(dataset, m, rng)
        assert sum(len(s) for s in shards) == n
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    @given(
        seed=seeds,
        lost=st.lists(
            st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_drop_labels_never_leaks_lost_label(self, seed, lost):
        rng = np.random.default_rng(seed)
        dataset = make_classification(300, 3, 10, rng)
        shards = partition_drop_labels(dataset, [tuple(s) for s in lost])
        for shard, lost_set in zip(shards, lost):
            assert not np.isin(shard.labels, sorted(lost_set)).any()


# ---------------------------------------------------------------------------
# EMA properties
# ---------------------------------------------------------------------------


class TestEMAProperties:
    @given(
        beta=st.floats(min_value=0.0, max_value=0.99),
        values=st.lists(
            st.floats(min_value=0.001, max_value=1e6, allow_nan=False), min_size=1, max_size=50
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_ema_bounded_by_observations(self, beta, values):
        ema = ExponentialMovingAverage(beta=beta)
        for value in values:
            ema.update(value)
        assert min(values) - 1e-9 <= ema.value <= max(values) + 1e-9

    @given(beta=st.floats(min_value=0.0, max_value=0.99), value=st.floats(0.1, 100))
    @settings(max_examples=30, deadline=None)
    def test_constant_stream_is_fixed_point(self, beta, value):
        ema = ExponentialMovingAverage(beta=beta)
        for _ in range(10):
            ema.update(value)
        assert ema.value == pytest.approx(value)


# ---------------------------------------------------------------------------
# Event-engine properties
# ---------------------------------------------------------------------------


class TestEngineProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_events_execute_in_sorted_time_order(self, delays):
        sim = Simulator()
        executed = []
        for delay in delays:
            sim.schedule_at(delay, lambda d=delay: executed.append(d))
        sim.run(until_time=1e7)
        assert executed == sorted(executed)
        assert len(executed) == len(delays)

    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30),
        cutoff=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_until_time_is_respected(self, delays, cutoff):
        sim = Simulator()
        executed = []
        for delay in delays:
            sim.schedule_at(delay, lambda d=delay: executed.append(d))
        sim.run(until_time=cutoff)
        assert all(d <= cutoff for d in executed)
        assert len(executed) == sum(1 for d in delays if d <= cutoff)

"""Shared fixtures for the test-suite."""

import numpy as np
import pytest

from repro.graph import Topology


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def full5():
    """Fully connected topology on 5 workers (paper's default shape)."""
    return Topology.fully_connected(5)


@pytest.fixture
def hetero_times5():
    """Iteration-time matrix with two fast pairs, everything else slow."""
    times = np.full((5, 5), 2.0)
    times[0, 1] = times[1, 0] = 0.2
    times[2, 3] = times[3, 2] = 0.3
    np.fill_diagonal(times, 0.1)
    return times


@pytest.fixture(scope="session")
def highs_policy_lp():
    """The Eq. (14) LP handed to scipy's HiGHS, worker by worker: the oracle
    the closed-form ``solve_policy_lp`` is checked against (``src/`` itself
    no longer imports scipy). Returns the raw solver rows, or ``None`` when
    any worker's LP is infeasible."""
    from scipy.optimize import linprog

    from repro.core.policy import _STRICT_MARGIN

    def solve(times, indicator, alpha, rho, t_bar):
        times = np.asarray(times, dtype=np.float64)
        indicator = np.asarray(indicator, dtype=np.float64)
        m = times.shape[0]
        policy = np.zeros((m, m))
        for i in range(m):
            neighbors = np.flatnonzero(indicator[i] > 0)
            floors = alpha * rho * (indicator[i, neighbors] + indicator[neighbors, i])
            floors = floors * (1.0 + _STRICT_MARGIN)
            cost = np.concatenate(
                ([1.0], 1e-3 * (times[i, neighbors] / times[i, neighbors].max()) ** 2)
            )
            a_eq = np.ones((2, 1 + neighbors.size))
            a_eq[0] = np.concatenate(([0.0], times[i, neighbors]))
            bounds = [(0.0, 1.0)] + [(floor, 1.0) for floor in floors]
            # HiGHS's default feasibility tolerance (1e-7, absolute) lets it
            # miss Eq. (10) by enough to zero a p_ii of ~5e-7 the exact
            # optimum keeps; the oracle is held to round-off instead.
            solution = linprog(
                cost,
                A_eq=a_eq,
                b_eq=[m * t_bar, 1.0],
                bounds=bounds,
                method="highs",
                options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
            )
            if not solution.success:
                return None
            policy[i, i] = solution.x[0]
            policy[i, neighbors] = solution.x[1:]
        return policy

    return solve


def _reference_lp(times, indicator, alpha, rho, t_bar):
    """The closed-form Eq. (14) LP one grid point at a time, as it stood
    before the grid search was batched: the oracle for ``_lp_stack``."""
    from repro.core.policy import _FEASIBILITY_TOL, _STRICT_MARGIN

    times = np.asarray(times, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    m = times.shape[0]
    neighbors = indicator > 0
    if not neighbors.any(axis=1).all():
        return None
    times = np.where(neighbors, times, 0.0)
    floor = alpha * rho * (1.0 + _STRICT_MARGIN)
    policy = np.where(neighbors, floor * (indicator + indicator.T), 0.0)
    budget = m * t_bar
    mass = 1.0 - policy.sum(axis=1, keepdims=True)
    time_left = budget - (times * policy).sum(axis=1, keepdims=True)
    slowest = times.max(axis=1, keepdims=True)
    slack = _FEASIBILITY_TOL * budget
    if mass.min() < -_FEASIBILITY_TOL or time_left.min() < -slack:
        return None
    mass = np.maximum(mass, 0.0)
    if np.any(time_left > mass * slowest + slack):
        return None
    time_left = np.clip(time_left, 0.0, mass * slowest)
    tau = np.divide(time_left, mass, out=np.zeros_like(mass), where=mass > 0)
    below = neighbors & (times <= tau)
    t_low = np.where(below, times, 0.0).max(axis=1, keepdims=True)
    t_high = np.where(neighbors & ~below, times, np.inf).min(axis=1, keepdims=True)
    on_high = np.clip((time_left - mass * t_low) / (t_high - t_low), 0.0, mass)
    on_low = mass - on_high
    at_low = below & (times == t_low)
    at_high = times == t_high
    shared_low = at_low.sum(axis=1, keepdims=True)
    shared_high = at_high.sum(axis=1, keepdims=True)
    policy += np.where(at_low, on_low / np.maximum(shared_low, 1), 0.0)
    policy += np.where(at_high, on_high / np.maximum(shared_high, 1), 0.0)
    policy[np.diag_indices(m)] = np.where(shared_low == 0, on_low, 0.0)[:, 0]
    return policy


def _reference_mixing(policy, indicator, alpha, rho):
    """Eq. (22) with the per-row diagonal loop and uniform ``p_i = 1/M``."""
    m_workers = policy.shape[0]
    worker_probs = np.full(m_workers, 1.0 / m_workers)
    gamma = np.zeros_like(policy)
    mask = (indicator > 0) & (policy > 0)
    gamma[mask] = (indicator[mask] + indicator.T[mask]) / (2.0 * policy[mask])
    flow = worker_probs[:, None] * policy * gamma
    flow2 = worker_probs[:, None] * policy * gamma**2
    mixing = np.zeros((m_workers, m_workers))
    off = ~np.eye(m_workers, dtype=bool)
    first_order = alpha * rho * (flow + flow.T)
    second_order = (alpha * rho) ** 2 * (flow2 + flow2.T)
    mixing[off] = first_order[off] - second_order[off]
    for i in range(m_workers):
        others = np.arange(m_workers) != i
        mixing[i, i] = (
            1.0
            - 2.0 * alpha * rho * flow[i, others].sum()
            + (alpha * rho) ** 2 * (flow2[i, others].sum() + flow2.T[i, others].sum())
        )
    return mixing


@pytest.fixture(scope="session")
def reference_policy_search():
    """Algorithm 3 point by point: a nested ``(rho, t_bar)`` loop over an LP
    (``lp``, default the per-point closed form), the per-row Eq. (22) and
    one ``eigvalsh`` per matrix. Returns the winning ``PolicyResult`` or
    ``None`` when no grid point is feasible -- the oracle the batched
    ``repro.core.policy`` search must match bit for bit."""
    from repro.core.convergence import convergence_time
    from repro.core.policy import PolicyResult, rho_interval, t_interval

    def search(times, indicator, alpha, outer_rounds=10, inner_rounds=10,
               epsilon=1e-2, lp=_reference_lp):
        times = np.asarray(times, dtype=np.float64)
        indicator = np.asarray(indicator, dtype=np.float64)
        lower_rho, upper_rho = rho_interval(alpha)
        m = times.shape[0]
        symmetric_d = indicator + indicator.T
        floor_cost = float(np.max(alpha / m * np.sum(times * symmetric_d, axis=1)))
        per_worker_max = np.max(times * indicator, axis=1)
        upper_t_global = float(np.min(per_worker_max / m))
        if floor_cost > 0:
            upper_rho = min(upper_rho, upper_t_global / floor_cost)
        delta_rho = (upper_rho - lower_rho) / outer_rounds
        best = None
        evaluated = infeasible = 0
        for k in range(1, outer_rounds + 1):
            rho = lower_rho + k * delta_rho
            lower_t, upper_t = t_interval(times, indicator, alpha, rho)
            if lower_t > upper_t:
                infeasible += inner_rounds
                continue
            delta_t = (upper_t - lower_t) / inner_rounds
            for r in range(1, inner_rounds + 1):
                t_bar = lower_t + r * delta_t
                policy = lp(times, indicator, alpha, rho, t_bar)
                if policy is None:
                    infeasible += 1
                    continue
                mixing = _reference_mixing(policy, indicator, alpha, rho)
                lambda2 = float(np.linalg.eigvalsh(mixing)[-2])
                if not 0.0 < lambda2 < 1.0:
                    infeasible += 1
                    continue
                evaluated += 1
                predicted = convergence_time(t_bar, lambda2, epsilon)
                if best is None or predicted < best[4]:
                    best = (policy, rho, t_bar, lambda2, predicted)
        if best is None:
            return None
        return PolicyResult(*best, epsilon=epsilon, candidates_evaluated=evaluated,
                            candidates_infeasible=infeasible)

    return search


@pytest.fixture(scope="session")
def reference_lp():
    """The per-point closed-form LP the search used before batching."""
    return _reference_lp


@pytest.fixture(scope="session")
def reference_mixing():
    """Eq. (22) with its per-row diagonal loop (uniform ``p_i``)."""
    return _reference_mixing

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
            solution = linprog(
                cost, A_eq=a_eq, b_eq=[m * t_bar, 1.0], bounds=bounds, method="highs"
            )
            if not solution.success:
                return None
            policy[i, i] = solution.x[0]
            policy[i, neighbors] = solution.x[1:]
        return policy

    return solve

"""The mixing-matrix algebra of Section IV.

One global step of NetMax multiplies the stacked worker models by a random
matrix ``D^k`` (Eq. 18-19):

    D^k = I + alpha * rho * gamma_im * e_i (e_m - e_i)^T

where worker ``i`` (active with probability ``p_i``) pulls from neighbor
``m`` (chosen with probability ``p_im``) and
``gamma_im = (d_im + d_mi) / (2 p_im)``. Convergence is governed by the
second-largest eigenvalue of the *expected* mixing matrix

    Y_P = E[(D^k)^T D^k]   (Eq. 20-22),

which this module builds in closed form -- and, for the test-suite, by
Monte-Carlo sampling of actual ``D^k`` draws so the closed form can be
cross-checked against the definition.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gamma_matrix",
    "random_update_matrix",
    "expected_mixing_matrix",
    "sampled_mixing_matrix",
    "second_largest_eigenvalue",
    "is_doubly_stochastic",
]


def _validate_policy(policy: np.ndarray, indicator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    policy = np.asarray(policy, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    if policy.ndim != 2 or policy.shape[0] != policy.shape[1]:
        raise ValueError(f"policy must be square, got shape {policy.shape}")
    if indicator.shape != policy.shape:
        raise ValueError("indicator shape must match policy")
    if np.any(policy < -1e-12):
        raise ValueError("policy entries must be non-negative")
    row_sums = policy.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=1e-6):
        raise ValueError(f"policy rows must sum to 1, got sums {row_sums}")
    off_diagonal = ~np.eye(policy.shape[0], dtype=bool)
    if np.any((policy > 1e-12) & (indicator == 0) & off_diagonal):
        raise ValueError("policy places probability on non-edges")
    return policy, indicator


def gamma_matrix(policy: np.ndarray, indicator: np.ndarray) -> np.ndarray:
    """``gamma_im = (d_im + d_mi) / (2 p_im)`` on edges with ``p_im > 0``.

    Entries where ``p_im = 0`` or ``d_im = 0`` are zero (those pulls never
    happen). For an undirected graph ``d_im + d_mi = 2``, so on selected
    edges ``gamma_im = 1 / p_im`` -- the "higher weight for rarely chosen
    neighbors" that Section V-F credits for non-IID robustness.
    """
    policy, indicator = _validate_policy(policy, indicator)
    return _gamma(policy, indicator)


def _gamma(policy: np.ndarray, indicator: np.ndarray) -> np.ndarray:
    """:func:`gamma_matrix` over a ``(..., M, M)`` stack, unvalidated."""
    gamma = np.zeros_like(policy)
    np.divide(
        indicator + np.swapaxes(indicator, -1, -2),
        2.0 * policy,
        out=gamma,
        where=(indicator > 0) & (policy > 0),
    )
    return gamma


def random_update_matrix(
    num_workers: int, i: int, m: int, alpha: float, rho: float, gamma_im: float
) -> np.ndarray:
    """One realization of ``D^k`` (Eq. 19) for the draw ``(i, m)``."""
    if not (0 <= i < num_workers and 0 <= m < num_workers):
        raise ValueError(f"workers ({i}, {m}) out of range")
    if alpha <= 0 or rho < 0 or gamma_im < 0:
        raise ValueError("alpha must be positive; rho and gamma non-negative")
    matrix = np.eye(num_workers)
    if i != m:
        coeff = alpha * rho * gamma_im
        matrix[i, i] -= coeff
        matrix[i, m] += coeff
    return matrix


def expected_mixing_matrix(
    policy: np.ndarray,
    indicator: np.ndarray,
    alpha: float,
    rho: float,
    worker_probs: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form ``Y_P = E[(D^k)^T D^k]`` per Eq. (22).

    Args:
        policy: neighbor-selection matrix ``P`` (rows sum to 1; diagonal is
            the self-selection probability ``p_ii``).
        indicator: the ``d_im`` adjacency indicators.
        alpha: learning rate.
        rho: consensus weight.
        worker_probs: the global-step probabilities ``p_i``; defaults to
            uniform ``1/M``, which is exact for any feasible policy of the
            optimization problem (Lemma 1 shows Eq. (10) forces
            ``p_i = 1/M``).

    Returns:
        The symmetric ``(M, M)`` matrix ``Y_P``.
    """
    policy, indicator = _validate_policy(policy, indicator)
    if alpha <= 0 or rho < 0:
        raise ValueError("alpha must be positive and rho non-negative")
    m_workers = policy.shape[0]
    if worker_probs is None:
        worker_probs = np.full(m_workers, 1.0 / m_workers)
    else:
        worker_probs = np.asarray(worker_probs, dtype=np.float64)
        if worker_probs.shape != (m_workers,):
            raise ValueError("worker_probs must have one entry per worker")
        if np.any(worker_probs < 0) or not np.isclose(worker_probs.sum(), 1.0, atol=1e-6):
            raise ValueError("worker_probs must be a probability distribution")

    return _mixing_stack(
        policy[None],
        indicator[None],
        alpha,
        np.array([rho], dtype=np.float64),
        np.array([(alpha * rho) ** 2]),
        worker_probs,
    )[0]


def _off_diagonal(stack: np.ndarray) -> np.ndarray:
    """Row ``i`` of each ``(M, M)`` matrix in ``stack`` without entry ``i``.

    Returned C-ordered as ``(G, M, M - 1)``, so a row sum over the last axis
    is numpy's pairwise sum of the 1-D ``matrix[i, others]`` bit for bit (a
    fancy-indexed gather lays the stack axis innermost, and summing that
    adds the terms in another order once a row has 8 or more).
    """
    count, m, _ = stack.shape
    rows = stack.reshape(count, m * m)[:, 1:].reshape(count, m - 1, m + 1)
    return np.ascontiguousarray(rows[:, :, :m].reshape(count, m, m - 1))


def _mixing_stack(
    policy: np.ndarray,
    indicator: np.ndarray,
    alpha: float,
    rho: np.ndarray,
    alpha_rho_sq: np.ndarray,
    worker_probs: np.ndarray,
) -> np.ndarray:
    """Eq. (22) for a ``(G, M, M)`` stack of policies, unvalidated.

    ``rho`` and ``alpha_rho_sq`` hold one value per policy; the caller
    computes ``(alpha * rho) ** 2`` as a scalar power, because numpy's
    array ``** 2`` (``x * x``) and libm's ``pow`` part ways in the last bit
    on a few inputs in a thousand. ``worker_probs`` is the shared ``p_i``.
    """
    gamma = _gamma(policy, indicator)
    # flow[i, m] = p_i * p_im * gamma_im  (the expected-weight of pull i<-m);
    # flow2 uses gamma^2 for the second-order term.
    weighted = worker_probs[:, None] * policy
    flow = weighted * gamma
    flow2 = weighted * gamma**2
    flow2_t = np.swapaxes(flow2, 1, 2)
    first_order = (alpha * rho)[:, None, None] * (flow + np.swapaxes(flow, 1, 2))
    second_order = alpha_rho_sq[:, None, None] * (flow2 + flow2_t)
    mixing = first_order - second_order
    diagonal = (
        1.0
        - (2.0 * alpha * rho)[:, None] * _off_diagonal(flow).sum(axis=2)
        + alpha_rho_sq[:, None]
        * (_off_diagonal(flow2).sum(axis=2) + _off_diagonal(flow2_t).sum(axis=2))
    )
    workers = np.arange(policy.shape[1])
    mixing[:, workers, workers] = diagonal
    return mixing


def sampled_mixing_matrix(
    policy: np.ndarray,
    indicator: np.ndarray,
    alpha: float,
    rho: float,
    worker_probs: np.ndarray,
    rng: np.random.Generator,
    num_samples: int = 10_000,
) -> np.ndarray:
    """Monte-Carlo estimate of ``E[(D^k)^T D^k]`` straight from Eq. (19).

    Used by tests to validate :func:`expected_mixing_matrix` against the
    definition; O(num_samples * M^2), so keep M small.
    """
    policy, indicator = _validate_policy(policy, indicator)
    worker_probs = np.asarray(worker_probs, dtype=np.float64)
    m_workers = policy.shape[0]
    gamma = gamma_matrix(policy, indicator)
    accumulator = np.zeros((m_workers, m_workers))
    for _ in range(num_samples):
        i = int(rng.choice(m_workers, p=worker_probs))
        m = int(rng.choice(m_workers, p=policy[i]))
        update = random_update_matrix(m_workers, i, m, alpha, rho, gamma[i, m])
        accumulator += update.T @ update
    return accumulator / num_samples


def second_largest_eigenvalue(matrix: np.ndarray) -> float:
    """Second-largest eigenvalue of a symmetric matrix (``lambda_2``)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    if matrix.shape[0] < 2:
        raise ValueError("need at least a 2x2 matrix")
    if not np.allclose(matrix, matrix.T, atol=1e-9):
        raise ValueError("matrix must be symmetric")
    eigenvalues = np.linalg.eigvalsh(matrix)
    return float(eigenvalues[-2])


def is_doubly_stochastic(matrix: np.ndarray, atol: float = 1e-8) -> bool:
    """True iff entries are non-negative and all rows/columns sum to 1."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if np.any(matrix < -atol):
        return False
    return bool(
        np.allclose(matrix.sum(axis=0), 1.0, atol=atol)
        and np.allclose(matrix.sum(axis=1), 1.0, atol=atol)
    )

"""Theorems 1-3 bounds.

These closed forms let the policy generator predict convergence time
(``T_conv = t * ln(eps) / ln(lambda_2)``, Algorithm 3 line 21) and let the
test-suite verify the theory empirically on quadratic consensus problems.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "deviation_bound",
    "iterations_to_epsilon",
    "convergence_time",
    "stable_lr_upper_bound",
]


def deviation_bound(
    lambda_: float,
    k: int,
    initial_deviation_sq: float,
    alpha: float,
    sigma: float,
) -> float:
    """Theorem 1 / 2 right-hand side (Eq. 23 / 24).

    ``E||x^k - x* 1||^2 <= lambda^k ||x^0 - x* 1||^2
    + alpha^2 sigma^2 lambda / (1 - lambda)``.

    For the dynamic-network bound (Theorem 2), pass ``lambda_ = lambda_max``.

    Args:
        lambda_: governing eigenvalue, must be in [0, 1) for the bound to be
            finite.
        k: global iteration count, >= 0.
        initial_deviation_sq: ``||x^0 - x* 1||^2``.
        alpha: learning rate.
        sigma: gradient-noise standard deviation bound of Assumption 1.
    """
    if not 0.0 <= lambda_ < 1.0:
        raise ValueError(f"bound requires lambda in [0, 1), got {lambda_}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if initial_deviation_sq < 0 or sigma < 0:
        raise ValueError("deviation and sigma must be non-negative")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    transient = lambda_**k * initial_deviation_sq
    noise_floor = alpha**2 * sigma**2 * lambda_ / (1.0 - lambda_)
    return float(transient + noise_floor)


def iterations_to_epsilon(lambda_: float, epsilon: float) -> float:
    """Smallest ``k`` with ``lambda^k <= epsilon`` (constraint Eq. 9).

    Returned as a real number (``ln(eps) / ln(lambda)``); callers round up
    when they need an integer step count.
    """
    if not 0.0 < lambda_ < 1.0:
        raise ValueError(f"need lambda in (0, 1), got {lambda_}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"need epsilon in (0, 1), got {epsilon}")
    return float(np.log(epsilon) / np.log(lambda_))


def convergence_time(t_bar: float, lambda_: float, epsilon: float) -> float:
    """Predicted total convergence time ``k * t`` (Algorithm 3, line 21).

    The trade-off at the heart of the paper: a policy may lower ``t_bar``
    (favoring fast links) at the cost of a larger ``lambda_`` (slower mixing);
    this product is what Algorithm 3 minimizes.
    """
    if t_bar <= 0:
        raise ValueError(f"t_bar must be positive, got {t_bar}")
    return t_bar * iterations_to_epsilon(lambda_, epsilon)


def stable_lr_upper_bound(mu: float, lipschitz: float) -> float:
    """The ``2 / (mu + L)`` learning-rate ceiling of Theorems 1-3."""
    if mu <= 0 or lipschitz <= 0:
        raise ValueError("mu and L must be positive")
    if lipschitz < mu:
        raise ValueError("Lipschitz constant cannot be below strong convexity constant")
    return 2.0 / (mu + lipschitz)


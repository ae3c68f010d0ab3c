"""Losses, accuracy, and the exponential moving average from Algorithm 2.

These are the numerical primitives shared by the models, the trainers, and
the Network Monitor's iteration-time tracking.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "softmax_cross_entropy",
    "accuracy",
    "ExponentialMovingAverage",
]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the usual max-subtraction for stability.

    Args:
        logits: array of shape ``(n, c)`` (or ``(c,)`` for a single row).

    Returns:
        Array of the same shape whose rows are positive and sum to 1.
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable ``log(softmax(logits))`` along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient with respect to the logits.

    Args:
        logits: ``(n, c)`` raw scores.
        labels: ``(n,)`` integer class labels in ``[0, c)``.

    Returns:
        ``(loss, dloss/dlogits)`` where the gradient already includes the
        ``1/n`` factor of the mean.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n = logits.shape[0]
    if n == 0:
        raise ValueError("cannot compute cross-entropy of an empty batch")
    # softmax and log_softmax share shift / exp / sum: computed once here,
    # in their order, so both halves equal the two-call formula bit for bit.
    rows = np.arange(n)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    grad = np.exp(shifted)
    total = grad.sum(axis=-1, keepdims=True)
    loss = float(-(shifted[rows, labels] - np.log(total)[:, 0]).mean())
    grad /= total
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    predictions = np.argmax(logits, axis=-1)
    return float(np.mean(predictions == labels))


class ExponentialMovingAverage:
    """The EMA of Algorithm 2, lines 19-22: ``T <- beta * T + (1 - beta) * t``.

    The paper smooths per-neighbor iteration times with this filter; the
    smoothing factor ``beta`` controls the effective window (small beta =
    short window = fast reaction to link-speed changes).

    The first observation initializes the average directly rather than
    decaying from zero, so a freshly created EMA is unbiased. ``value`` is
    ``None`` until the first update.
    """

    def __init__(self, beta: float = 0.8):
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {beta}")
        self.beta = float(beta)
        self._value: float | None = None
        self._count = 0

    @property
    def value(self) -> float | None:
        """Current smoothed value, or ``None`` before any update."""
        return self._value

    @property
    def count(self) -> int:
        """Number of observations folded in so far."""
        return self._count

    def update(self, observation: float) -> float:
        """Fold one observation into the average and return the new value."""
        observation = float(observation)
        if self._value is None:
            self._value = observation
        else:
            self._value = self.beta * self._value + (1.0 - self.beta) * observation
        self._count += 1
        return self._value

    def reset(self) -> None:
        """Forget all history (used when the monitor detects a regime change)."""
        self._value = None
        self._count = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ExponentialMovingAverage(beta={self.beta}, value={self._value}, count={self._count})"

"""Strongly convex quadratic consensus problems for validating the theory.

Theorems 1-3 assume each local loss ``f_i`` is mu-strongly convex with
L-Lipschitz gradients and that stochastic gradients carry zero-mean bounded
noise. Quadratics

    f_i(x) = 0.5 * (x - b_i)^T A_i (x - b_i)

satisfy all of that exactly (mu = lambda_min(A_i), L = lambda_max(A_i)), and
their joint optimum is available in closed form, so the test-suite can check
the deviation bound of Eq. (23) empirically. They double as the "model" in
fast algorithm tests where a full MLP would be wasteful.
"""

from __future__ import annotations

import numpy as np

from repro.ml.models import Model

__all__ = ["QuadraticProblem", "make_consensus_quadratics"]


class QuadraticProblem(Model):
    """``f(x) = 0.5 (x-b)^T A (x-b)`` with optional additive gradient noise.

    Implements the :class:`~repro.ml.models.Model` interface so trainers can
    drive it exactly like a classifier; the ``features``/``labels`` batch
    arguments are ignored (the loss is deterministic up to injected noise).

    Attributes:
        matrix: the positive definite ``A``.
        target: the minimizer ``b``.
        noise_std: per-coordinate standard deviation of the additive noise
            ``xi`` of Assumption 1 (zero-mean, bounded variance).
    """

    def __init__(
        self,
        matrix: np.ndarray,
        target: np.ndarray,
        noise_std: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        matrix = np.asarray(matrix, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        if target.shape != (matrix.shape[0],):
            raise ValueError("target dimension must match matrix")
        if not np.allclose(matrix, matrix.T):
            raise ValueError("matrix must be symmetric")
        eigenvalues = np.linalg.eigvalsh(matrix)
        if eigenvalues.min() <= 0:
            raise ValueError("matrix must be positive definite")
        if noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        self.matrix = matrix
        self.target = target
        self.noise_std = float(noise_std)
        self._params = np.zeros_like(target)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._mu = float(eigenvalues.min())
        self._lipschitz = float(eigenvalues.max())

    # -- theory accessors ----------------------------------------------------

    @property
    def mu(self) -> float:
        """Strong convexity constant (smallest eigenvalue of A)."""
        return self._mu

    @property
    def lipschitz(self) -> float:
        """Gradient Lipschitz constant (largest eigenvalue of A)."""
        return self._lipschitz

    def stable_lr_upper_bound(self) -> float:
        """The ``2 / (mu + L)`` learning-rate ceiling of Theorem 1."""
        return 2.0 / (self._mu + self._lipschitz)

    # -- Model interface -----------------------------------------------------

    def predict_logits(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError("quadratic problems have no classification head")

    def loss_and_grad(self, features=None, labels=None) -> tuple[float, np.ndarray]:
        """Loss and (noisy) gradient at the current parameters.

        The batch arguments exist only for interface compatibility.
        """
        diff = self._params - self.target
        loss = 0.5 * float(diff @ self.matrix @ diff)
        grad = self.matrix @ diff
        if self.noise_std:
            grad = grad + self._rng.normal(0.0, self.noise_std, size=grad.shape)
        return loss, grad

    def loss(self, features=None, labels=None) -> float:
        diff = self._params - self.target
        return 0.5 * float(diff @ self.matrix @ diff)

    def accuracy(self, features=None, labels=None) -> float:
        raise NotImplementedError("quadratic problems have no accuracy")

    def clone(self) -> "QuadraticProblem":
        twin = super().clone()
        # repro-lint: allow[RPL004] -- clone inherits a child stream drawn
        # from the parent problem's generator (documented clone contract,
        # pinned by golden regressions; SeedSequence.spawn migration needs
        # a CACHE_VERSION bump)
        twin._rng = np.random.default_rng(self._rng.integers(2**63))
        return twin


def make_consensus_quadratics(
    num_workers: int,
    dim: int,
    rng: np.random.Generator,
    noise_std: float = 0.0,
    condition_number: float = 4.0,
    target_spread: float = 1.0,
) -> tuple[list[QuadraticProblem], np.ndarray]:
    """Build one quadratic per worker plus the joint optimum.

    Each worker gets the *same* curvature ``A`` (diagonal, eigenvalues spread
    log-uniformly up to ``condition_number``) but its own target ``b_i``
    drawn around zero. The minimizer of ``sum_i f_i`` with shared ``A`` is
    the mean of the targets -- returned so tests can measure
    ``||x^k - x* 1||`` exactly as in Theorem 1.

    Returns:
        ``(problems, x_star)``.
    """
    if num_workers < 1:
        raise ValueError("need at least one worker")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if condition_number < 1:
        raise ValueError("condition_number must be >= 1")
    eigenvalues = np.logspace(0.0, np.log10(condition_number), dim)
    matrix = np.diag(eigenvalues)
    targets = rng.normal(0.0, target_spread, size=(num_workers, dim))
    problems = [
        QuadraticProblem(
            matrix,
            targets[i],
            noise_std=noise_std,
            # repro-lint: allow[RPL004] -- per-worker child streams drawn in
            # worker order from the caller's generator; pinned by golden
            # regressions (SeedSequence.spawn migration needs a CACHE_VERSION
            # bump + golden regen)
            rng=np.random.default_rng(rng.integers(2**63)),
        )
        for i in range(num_workers)
    ]
    x_star = targets.mean(axis=0)
    return problems, x_star

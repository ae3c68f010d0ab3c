"""SGD hyper-parameters and learning-rate schedules from Section V.

The paper trains with minibatch SGD, momentum 0.9, weight decay 1e-4, and a
learning rate that "starts from 0.1 and decays by a factor of 10 once the
loss does not decrease any more" (or at a fixed epoch for the non-uniform
experiments). Theorem 3 additionally analyses the ``alpha = c / sqrt(k)``
schedule. All of those are provided here.

The momentum/weight-decay bookkeeping lives in :class:`SGDState` so each
worker replica carries its own velocity buffer, as a PyTorch optimizer would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LRSchedule",
    "ConstantLR",
    "StepDecayLR",
    "PlateauDecayLR",
    "SGDConfig",
    "SGDState",
]


class LRSchedule:
    """Base class: maps training progress to a learning rate.

    ``lr(epoch)`` is queried with fractional epoch progress; subclasses that
    react to the loss implement :meth:`observe_loss`.
    """

    def lr(self, epoch: float) -> float:
        raise NotImplementedError

    def observe_loss(self, loss: float) -> None:
        """Hook for loss-adaptive schedules; default is a no-op."""


@dataclass
class ConstantLR(LRSchedule):
    """A fixed learning rate (used by the MNIST non-IID experiments, lr=0.01)."""

    base_lr: float

    def __post_init__(self) -> None:
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")

    def lr(self, epoch: float) -> float:
        return self.base_lr


@dataclass
class StepDecayLR(LRSchedule):
    """Decay by a factor of 10 at each epoch listed in ``milestones``.

    Matches "decays by a factor of 10 at epoch 80" (Sec. V-F) with
    ``StepDecayLR(0.1, milestones=(80,))``.
    """

    base_lr: float
    milestones: tuple[float, ...] = ()
    factor = 0.1  # a class constant, not a field

    def __post_init__(self) -> None:
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if any(m < 0 for m in self.milestones):
            raise ValueError("milestones must be non-negative")
        object.__setattr__(self, "milestones", tuple(sorted(self.milestones)))

    def lr(self, epoch: float) -> float:
        passed = sum(1 for m in self.milestones if epoch >= m)
        return self.base_lr * self.factor**passed


class PlateauDecayLR(LRSchedule):
    """Decay by ``factor`` when the observed loss stops decreasing.

    This is the paper's default schedule ("decays by a factor of 10 once the
    loss does not decrease any more"). The loss is considered stalled when
    the best loss seen has not improved by at least ``min_delta`` for
    ``patience`` consecutive observations; the rate never falls below
    ``min_lr``.
    """

    factor = 0.1
    patience = 5
    min_delta = 1e-3
    min_lr = 1e-5

    def __init__(self, base_lr: float):
        if base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {base_lr}")
        self.base_lr = base_lr
        self._current = base_lr
        self._best = float("inf")
        self._stall = 0

    def lr(self, epoch: float) -> float:
        return self._current

    def observe_loss(self, loss: float) -> None:
        if loss < self._best - self.min_delta:
            self._best = loss
            self._stall = 0
            return
        self._stall += 1
        if self._stall >= self.patience:
            self._current = max(self.min_lr, self._current * self.factor)
            self._stall = 0


# Schedules whose lr() ignores its epoch argument: the rate moves only
# through observe_loss, so a caller may cache it between evaluations
# (exact classes, not isinstance: a subclass could override lr).
EPOCH_FREE_SCHEDULES = (ConstantLR, PlateauDecayLR)


@dataclass(frozen=True)
class SGDConfig:
    """Hyper-parameters shared by all workers of a training run.

    Defaults follow Section V-A: momentum 0.9, weight decay 1e-4. The
    learning rate itself comes from the schedule so it can adapt during
    the run.
    """

    momentum: float = 0.9
    weight_decay: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


class SGDState:
    """Per-worker momentum buffer implementing the SGD update.

    ``step`` maps ``(params, grad, lr)`` to new params:

    - weight decay is folded into the gradient (``grad + wd * params``);
    - velocity ``v <- momentum * v + g``;
    - ``params <- params - lr * v``.

    This matches PyTorch's ``SGD(momentum=m, weight_decay=wd)`` semantics,
    the optimizer the paper uses.
    """

    def __init__(self, config: SGDConfig, dim: int):
        self.config = config
        self._velocity = np.zeros(dim, dtype=np.float64)

    @property
    def velocity(self) -> np.ndarray:
        """The momentum buffer.

        Exposed so external steppers (the batched sweep engine) can mirror
        the buffer into a batch array and restore it afterwards; the setter
        copies, so the state never aliases caller memory.
        """
        return self._velocity

    @velocity.setter
    def velocity(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self._velocity.shape:
            raise ValueError(
                f"velocity shape {value.shape} != {self._velocity.shape}"
            )
        self._velocity = value.copy()

    def step(self, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        if lr < 0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        g = grad
        if self.config.weight_decay:
            g = g + self.config.weight_decay * params
        if self.config.momentum:
            self._velocity *= self.config.momentum
            self._velocity += g
            g = self._velocity
        return params - lr * g

    def reset(self) -> None:
        """Zero the velocity (used after a hard model overwrite)."""
        self._velocity[:] = 0.0

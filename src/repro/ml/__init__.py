"""Minimal numpy machine-learning substrate.

The paper trains PyTorch CNNs on GPUs; this package provides the
from-scratch replacement used throughout the reproduction:

- :mod:`repro.ml.models` -- numpy classifiers exposing a *flat parameter
  vector* API (``get_params`` / ``set_params`` / ``loss_and_grad``) so that
  every decentralized algorithm can treat a model as a point in R^d, exactly
  like the paper's analysis does.
- :mod:`repro.ml.optim` -- plain SGD with momentum / weight decay and the
  learning-rate schedules used in Section V (step decay, decay-on-plateau,
  and the ``c / sqrt(k)`` schedule of Theorem 3).
- :mod:`repro.ml.data` -- dataset container and minibatch sampling.
- :mod:`repro.ml.metrics` -- loss/accuracy metrics and the exponential
  moving average of Algorithm 2 (lines 19-22).
- :mod:`repro.ml.problems` -- strongly convex quadratic consensus problems
  used to validate Theorems 1-3 empirically.
"""

from repro.ml.data import Dataset, BatchSampler, train_test_split
from repro.ml.metrics import (
    ExponentialMovingAverage,
    accuracy,
    softmax,
    softmax_cross_entropy,
)
from repro.ml.models import (
    Model,
    SoftmaxRegression,
    MLPClassifier,
    build_model,
)
from repro.ml.optim import SGDConfig, LRSchedule, ConstantLR, StepDecayLR, PlateauDecayLR
from repro.ml.problems import QuadraticProblem, make_consensus_quadratics

__all__ = [
    "Dataset",
    "BatchSampler",
    "train_test_split",
    "ExponentialMovingAverage",
    "accuracy",
    "softmax",
    "softmax_cross_entropy",
    "Model",
    "SoftmaxRegression",
    "MLPClassifier",
    "build_model",
    "SGDConfig",
    "LRSchedule",
    "ConstantLR",
    "StepDecayLR",
    "PlateauDecayLR",
    "QuadraticProblem",
    "make_consensus_quadratics",
]

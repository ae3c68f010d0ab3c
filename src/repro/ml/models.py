"""Numpy classifiers with a flat-parameter-vector API.

Every decentralized algorithm in this repo manipulates models as points in
R^d -- exactly the abstraction the paper's analysis uses (``x_i`` in
Eq. (1)). A :class:`Model` therefore exposes:

- ``get_params() -> np.ndarray``: copy of the flat parameter vector;
- ``set_params(vec)``: overwrite parameters from a flat vector;
- ``loss_and_grad(X, y) -> (loss, flat_grad)``: minibatch loss + gradient;
- ``loss(X, y)`` and ``predict_logits(X)`` for evaluation.

The paper's CNNs (MobileNet, ResNet18/50, VGG19, GoogLeNet) are replaced by
small MLPs that genuinely train; the *cost* side of those architectures
(parameter counts, message bytes, GPU compute time) lives in
:mod:`repro.network.costmodel`. ``build_model`` maps a paper architecture
name to a default MLP configuration whose depth grows with the original
architecture's capacity, preserving the capacity ordering used by the paper
(e.g. "MobileNet is very simple, its capacity ... is not as good as larger
models", Sec. V-G).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.ml.metrics import accuracy, softmax_cross_entropy

__all__ = ["Model", "SoftmaxRegression", "MLPClassifier", "build_model", "MODEL_HIDDEN_LAYERS"]


class Model:
    """Abstract classifier over flat parameter vectors.

    A model owns exactly one flat float64 buffer, ``_params``; whatever
    structure a subclass needs (per-layer weight matrices) is a reshaped
    *view* into it, built by :meth:`_bind`. The flat vector the trainers
    speak is therefore the storage itself: reading it is one copy, writing
    it one validated copy into place, and nobody outside ever holds the buffer.
    """

    _params: np.ndarray
    # Attribute names _bind assigns. Views do not survive pickling or
    # deepcopy as views (numpy restores them as detached arrays), so they
    # are dropped from the state and rebuilt onto the restored buffer.
    _views: tuple[str, ...] = ()

    def _bind(self) -> None:
        """(Re)build the subclass's views into ``_params``."""

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in self._views}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    @property
    def dim(self) -> int:
        """Number of scalar parameters."""
        return self._params.size

    def get_params(self) -> np.ndarray:
        return self._params.copy()

    def set_params(self, params: np.ndarray) -> None:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != self._params.shape:
            raise ValueError(
                f"expected flat parameter vector of shape {self._params.shape}, "
                f"got {params.shape}"
            )
        self._params[...] = params

    def predict_logits(self, features: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def loss_and_grad(self, features: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    # Convenience wrappers shared by all models -----------------------------

    def loss(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy on a batch (no gradient)."""
        logp_loss, _ = softmax_cross_entropy(self.predict_logits(features), labels)
        return logp_loss

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy on a batch."""
        return accuracy(self.predict_logits(features), labels)

    def clone(self) -> "Model":
        """Independent copy with identical parameters (on its own buffer)."""
        twin = copy.copy(self)
        twin._params = self._params.copy()
        twin._bind()
        return twin


class MLPClassifier(Model):
    """Fully connected ReLU network with a softmax head.

    The flat buffer is laid out ``W_0, b_0, W_1, b_1, ...``; ``_weights`` and
    ``_biases`` are views of it, and the backward pass writes each layer's
    gradient straight into the same layout of a fresh flat vector.
    He initialization keeps gradients healthy at the depths used here.
    """

    _views = ("_weights", "_biases")

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        hidden: tuple[int, ...] = (64,),
        rng: np.random.Generator | None = None,
    ):
        if num_features < 1 or num_classes < 2:
            raise ValueError("need num_features >= 1 and num_classes >= 2")
        if any(h < 1 for h in hidden):
            raise ValueError(f"hidden layer sizes must be >= 1, got {hidden}")
        self.num_features = num_features
        self.num_classes = num_classes
        self.hidden = tuple(int(h) for h in hidden)
        rng = rng if rng is not None else np.random.default_rng(0)
        sizes = (num_features, *self.hidden, num_classes)
        self._params = np.zeros(
            sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
        )
        self._bind()
        for w in self._weights:
            w[...] = rng.normal(0.0, self._init_scale(w.shape[0]), size=w.shape)

    @staticmethod
    def _init_scale(fan_in: int) -> float:
        return np.sqrt(2.0 / fan_in)

    def _layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer ``(W, b)`` views of a flat vector in parameter layout."""
        sizes = (self.num_features, *self.hidden, self.num_classes)
        weights, biases = [], []
        cursor = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            split = cursor + fan_in * fan_out
            weights.append(flat[cursor:split].reshape(fan_in, fan_out))
            cursor = split + fan_out
            biases.append(flat[split:cursor])
        return weights, biases

    def _bind(self) -> None:
        self._weights, self._biases = self._layer_views(self._params)

    def _forward(self, features: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return logits and the input of every layer (features first)."""
        h = np.asarray(features, dtype=np.float64)
        inputs = [h]
        for w, b in zip(self._weights[:-1], self._biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            inputs.append(h)
        logits = h @ self._weights[-1]
        logits += self._biases[-1]
        return logits, inputs

    def predict_logits(self, features: np.ndarray) -> np.ndarray:
        logits, _ = self._forward(features)
        return logits

    def loss_and_grad(self, features: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
        logits, inputs = self._forward(features)
        loss, delta = softmax_cross_entropy(logits, labels)
        grad = np.empty_like(self._params)
        grads_w, grads_b = self._layer_views(grad)
        for layer in range(len(inputs) - 1, -1, -1):
            np.matmul(inputs[layer].T, delta, out=grads_w[layer])
            delta.sum(axis=0, out=grads_b[layer])
            if layer > 0:
                delta = delta @ self._weights[layer].T
                delta *= inputs[layer] > 0
        return loss, grad


class SoftmaxRegression(MLPClassifier):
    """Multinomial logistic regression: a single dense layer plus softmax.

    Convex in its parameters, which makes it the model of choice for tests
    that want reliable, fast convergence signals.
    """

    def __init__(self, num_features: int, num_classes: int, rng: np.random.Generator | None = None):
        super().__init__(num_features, num_classes, hidden=(), rng=rng)

    @staticmethod
    def _init_scale(fan_in: int) -> float:
        return 1.0 / np.sqrt(fan_in)


# Paper architecture -> default hidden-layer stack for the numpy stand-in.
# Widths/depths grow with the original architecture's capacity, preserving
# the paper's capacity ordering MobileNet < GoogLeNet < ResNet18 < ResNet50
# < VGG19 while staying small enough to train in milliseconds per batch.
MODEL_HIDDEN_LAYERS: dict[str, tuple[int, ...]] = {
    "mobilenet": (64,),
    "googlenet": (96,),
    "resnet18": (128, 64),
    "resnet50": (192, 96),
    "vgg19": (256, 128),
}


def build_model(
    architecture: str,
    num_features: int,
    num_classes: int,
    rng: np.random.Generator | None = None,
) -> MLPClassifier:
    """Instantiate the numpy stand-in for a paper architecture.

    Args:
        architecture: one of ``MODEL_HIDDEN_LAYERS`` keys (case-insensitive).
        num_features: input dimensionality of the dataset.
        num_classes: output classes.
        rng: randomness for weight init (shared across workers so all
            replicas start from the same ``x^0``, as the analysis assumes).

    Raises:
        KeyError: for unknown architecture names, listing the valid ones.
    """
    key = architecture.lower()
    if key not in MODEL_HIDDEN_LAYERS:
        raise KeyError(
            f"unknown architecture {architecture!r}; valid: {sorted(MODEL_HIDDEN_LAYERS)}"
        )
    return MLPClassifier(num_features, num_classes, MODEL_HIDDEN_LAYERS[key], rng=rng)

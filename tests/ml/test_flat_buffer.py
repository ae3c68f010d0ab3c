"""One flat parameter buffer per model: bitwise equality and ownership.

Two contracts of the flat-buffer models:

- **Same bits.** Keeping the layers as views of one buffer, fusing the
  softmax and log-softmax halves of the cross-entropy and writing gradients
  in place are re-arrangements of *where* results land, never of which
  floating-point operations run in which order. The reference below is the
  list-and-``concatenate`` formula the models used before; every drawn shape
  must agree with it byte for byte (goldens and ``CACHE_VERSION`` rest on
  this).
- **One owner.** Nobody outside a model ever holds its buffer, and the
  layer views always point into the model's *own* buffer -- also after
  ``clone``, ``copy.deepcopy`` and a pickle round trip, where numpy would
  otherwise restore a view as a detached array and training would silently
  stop moving the parameters.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.metrics import log_softmax, softmax, softmax_cross_entropy
from repro.ml.models import MLPClassifier, SoftmaxRegression
from repro.ml.problems import QuadraticProblem


def reference_cross_entropy(logits, labels):
    """Two-call formula: ``-mean(log_softmax[rows, labels])``, ``softmax - onehot``."""
    n = logits.shape[0]
    loss = float(-np.mean(log_softmax(logits)[np.arange(n), labels]))
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def reference_loss_and_grad(params, sizes, features, labels):
    """Per-layer list of fresh arrays, flattened with ``concatenate``."""
    weights, biases, cursor = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(params[cursor : cursor + fan_in * fan_out].reshape(fan_in, fan_out).copy())
        cursor += fan_in * fan_out
        biases.append(params[cursor : cursor + fan_out].copy())
        cursor += fan_out
    inputs = [np.asarray(features, dtype=np.float64)]
    for w, b in zip(weights[:-1], biases[:-1]):
        inputs.append(np.maximum(inputs[-1] @ w + b, 0.0))
    logits = inputs[-1] @ weights[-1] + biases[-1]
    loss, delta = reference_cross_entropy(logits, labels)
    parts = []
    for layer in range(len(weights) - 1, -1, -1):
        parts.append(delta.sum(axis=0))
        parts.append((inputs[layer].T @ delta).ravel())
        if layer > 0:
            delta = (delta @ weights[layer].T) * (inputs[layer] > 0)
    return loss, logits, np.concatenate(parts[::-1])


@st.composite
def mlp_cases(draw):
    num_features = draw(st.integers(1, 40))
    num_classes = draw(st.integers(2, 12))
    hidden = tuple(draw(st.lists(st.integers(1, 70), min_size=0, max_size=2)))
    batch = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**31 - 1))
    return num_features, num_classes, hidden, batch, seed


class TestSameBits:
    @settings(max_examples=150, deadline=None)
    @given(mlp_cases())
    def test_loss_and_grad_matches_list_and_concatenate_reference(self, case):
        num_features, num_classes, hidden, batch, seed = case
        rng = np.random.default_rng(seed)
        model = MLPClassifier(num_features, num_classes, hidden, rng=rng)
        model.set_params(rng.normal(size=model.dim))
        features = 3.0 * rng.normal(size=(batch, num_features))
        labels = rng.integers(0, num_classes, size=batch)

        loss, grad = model.loss_and_grad(features, labels)
        ref_loss, ref_logits, ref_grad = reference_loss_and_grad(
            model.get_params(), (num_features, *hidden, num_classes), features, labels
        )
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()
        assert model.predict_logits(features).tobytes() == ref_logits.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 64), st.integers(2, 12), st.integers(0, 2**31 - 1),
        st.sampled_from([0.1, 1.0, 30.0, 700.0]),
    )
    def test_fused_cross_entropy_matches_two_call_formula(self, batch, classes, seed, scale):
        rng = np.random.default_rng(seed)
        logits = scale * rng.normal(size=(batch, classes))
        labels = rng.integers(0, classes, size=batch)
        loss, grad = softmax_cross_entropy(logits, labels)
        ref_loss, ref_grad = reference_cross_entropy(logits, labels)
        assert loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()

    def test_softmax_regression_is_the_zero_hidden_layer_network(self):
        features = np.random.default_rng(3).normal(size=(9, 5))
        labels = np.arange(9) % 4
        model = SoftmaxRegression(5, 4, rng=np.random.default_rng(1))
        loss, grad = model.loss_and_grad(features, labels)
        ref_loss, _, ref_grad = reference_loss_and_grad(
            model.get_params(), (5, 4), features, labels
        )
        assert model.hidden == () and model.dim == 5 * 4 + 4
        assert loss == ref_loss and grad.tobytes() == ref_grad.tobytes()

    def test_initial_draws_are_one_normal_block_per_layer(self):
        """He-scaled weights in layer order, zero biases: the stream every
        golden was recorded under."""
        model = MLPClassifier(4, 3, hidden=(5,), rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        expected = np.concatenate([
            rng.normal(0.0, np.sqrt(2.0 / 4), size=(4, 5)).ravel(), np.zeros(5),
            rng.normal(0.0, np.sqrt(2.0 / 5), size=(5, 3)).ravel(), np.zeros(3),
        ])
        assert model.get_params().tobytes() == expected.tobytes()
        softmax_model = SoftmaxRegression(4, 3, rng=np.random.default_rng(7))
        expected = np.random.default_rng(7).normal(0.0, 1.0 / np.sqrt(4), size=(4, 3))
        assert softmax_model.get_params()[:12].tobytes() == expected.tobytes()


MODEL_FACTORIES = {
    "mlp": lambda: MLPClassifier(4, 3, hidden=(6, 5), rng=np.random.default_rng(1)),
    "softmax": lambda: SoftmaxRegression(4, 3, rng=np.random.default_rng(2)),
    "quadratic": lambda: QuadraticProblem(
        np.diag([1.0, 2.0, 4.0]), np.array([1.0, -1.0, 0.5]),
        noise_std=0.1, rng=np.random.default_rng(5),
    ),
}


@pytest.fixture(params=sorted(MODEL_FACTORIES))
def model(request):
    return MODEL_FACTORIES[request.param]()


def _batch(model):
    if isinstance(model, QuadraticProblem):
        return ()
    rng = np.random.default_rng(11)
    return rng.normal(size=(8, 4)), rng.integers(0, 3, size=8)


class TestOneOwner:
    def test_get_params_never_aliases_the_model(self, model):
        before = model.get_params()
        handed_out = model.get_params()
        handed_out += 1.0
        assert not np.shares_memory(handed_out, model.get_params())
        np.testing.assert_array_equal(model.get_params(), before)

    def test_set_params_never_keeps_the_argument(self, model):
        params = np.arange(model.dim, dtype=np.float64)
        model.set_params(params)
        params[:] = -7.0
        np.testing.assert_array_equal(model.get_params(), np.arange(model.dim))

    def test_set_params_reaches_the_layers(self, model):
        """The write must land in what the forward pass reads."""
        batch = _batch(model)
        model.set_params(np.zeros(model.dim))
        at_zero, _ = model.loss_and_grad(*batch)
        model.set_params(np.linspace(-1.0, 1.0, model.dim))
        moved, _ = model.loss_and_grad(*batch)
        assert at_zero != moved

    def test_mutating_a_clone_leaves_the_original_untouched(self, model):
        before = model.get_params()
        twin = model.clone()
        assert type(twin) is type(model)
        np.testing.assert_array_equal(twin.get_params(), before)
        twin.set_params(before + 1.0)
        for _ in range(3):
            _, grad = twin.loss_and_grad(*_batch(twin))
            twin.set_params(twin.get_params() - 0.1 * grad)
        np.testing.assert_array_equal(model.get_params(), before)

    @pytest.mark.parametrize(
        "roundtrip",
        [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
        ids=["deepcopy", "pickle"],
    )
    def test_trains_after_deepcopy_and_pickle(self, model, roundtrip):
        """A restored model's views must sit on its restored buffer: it
        follows the same trajectory as the original, bit for bit, and
        neither moves the other."""
        if isinstance(model, QuadraticProblem):
            model.noise_std = 0.0  # the copy shares no RNG stream to compare
        restored = roundtrip(model)
        start = model.get_params()
        np.testing.assert_array_equal(restored.get_params(), start)
        for _ in range(5):
            _, grad = restored.loss_and_grad(*_batch(restored))
            restored.set_params(restored.get_params() - 0.1 * grad)
        np.testing.assert_array_equal(model.get_params(), start)
        assert not np.array_equal(restored.get_params(), start)
        for _ in range(5):
            _, grad = model.loss_and_grad(*_batch(model))
            model.set_params(model.get_params() - 0.1 * grad)
        assert restored.get_params().tobytes() == model.get_params().tobytes()

    def test_wrong_shape_rejected(self, model):
        with pytest.raises(ValueError, match="flat parameter vector"):
            model.set_params(np.zeros(model.dim + 1))
        with pytest.raises(ValueError, match="flat parameter vector"):
            model.set_params(np.zeros((model.dim, 1)))


def test_layer_views_live_in_the_buffer_after_every_copy():
    model = MLPClassifier(4, 3, hidden=(6,), rng=np.random.default_rng(1))
    for copied in (model, model.clone(), copy.deepcopy(model),
                   pickle.loads(pickle.dumps(model))):
        for view in (*copied._weights, *copied._biases):
            assert np.shares_memory(view, copied._params)
            assert copied is model or not np.shares_memory(view, model._params)


def test_pickle_carries_the_buffer_once():
    model = MLPClassifier(32, 10, hidden=(64,))
    assert len(pickle.dumps(model)) < 1.5 * model.get_params().nbytes

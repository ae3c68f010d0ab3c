"""Property suite (hypothesis) run against EVERY compression op.

The cost model, the scenario axis, and the accuracy-impact hook all lean on
the four-point contract stated in :mod:`repro.network.compression`:

1. **Bounded bytes** -- ``compressed_bytes(profile)`` is a positive int
   that never exceeds the dense ``profile.message_bytes`` (ops model the
   real sender's dense fallback).
2. **Monotone in fidelity** -- more kept coordinates / more bits / more
   layers never shrinks the message, and never *increases*
   ``error_factor``.
3. **Bounded error** -- ``error_factor()`` lies in ``[0, 1)`` and is ``0``
   exactly when the op is lossless (in which case the bytes equal dense:
   "free lossless compression" would be a modeling bug).
4. **Purity** -- both methods are pure: repeated calls agree, and no op
   touches any RNG (the ``none`` path must consume zero draws for the
   bit-identity pin to hold).

The suite runs per *op*; a completeness test fails if someone adds a new
op to ``COMPRESSION_OPS`` without wiring it in here --
mirroring ``tests/properties/test_topology_invariants.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.compression import (
    COMPRESSION_OPS,
    CompressionOp,
    Layerwise,
    NoCompression,
    QSGD,
    TopK,
    compression_op_names,
    make_compression_op,
)
from repro.network.costmodel import BYTES_PER_PARAM, MODEL_ZOO, ModelCostProfile

param_counts = st.integers(min_value=1, max_value=200_000_000)
fractions = st.floats(
    min_value=1e-6, max_value=1.0, allow_nan=False, exclude_min=False
)
bit_widths = st.integers(min_value=1, max_value=8 * BYTES_PER_PARAM)


def profile_for(param_count: int) -> ModelCostProfile:
    return ModelCostProfile("synthetic", param_count, compute_time_s=0.1)


# op name -> strategy of op instances. Every registered op must appear here
# (see test_every_registered_op_covered).
OP_STRATEGIES = {
    "none": st.just(NoCompression()),
    "topk": fractions.map(lambda k: TopK(k=k)),
    "qsgd": bit_widths.map(lambda b: QSGD(bits=b)),
    "layerwise": fractions.map(lambda f: Layerwise(fraction=f)),
}

any_op = st.one_of(*OP_STRATEGIES.values())


def test_every_registered_op_covered():
    """An op in COMPRESSION_OPS without invariant coverage fails here."""
    missing = set(COMPRESSION_OPS) - set(OP_STRATEGIES)
    assert not missing, (
        f"compression ops without a property-suite strategy: "
        f"{sorted(missing)} -- add them to OP_STRATEGIES"
    )
    assert compression_op_names() == sorted(OP_STRATEGIES)


def test_every_op_buildable_via_factory_default():
    """make_compression_op(name) must work with the axis default 0.0."""
    for name in COMPRESSION_OPS:
        op = make_compression_op(name)
        assert op.name == name


class TestContract:
    @given(op=any_op, param_count=param_counts)
    @settings(max_examples=200, deadline=None)
    def test_bytes_positive_and_bounded_by_dense(self, op, param_count):
        profile = profile_for(param_count)
        compressed = op.compressed_bytes(profile)
        assert isinstance(compressed, int)
        assert 0 < compressed <= profile.message_bytes

    @given(op=any_op, param_count=param_counts)
    @settings(max_examples=100, deadline=None)
    def test_error_factor_bounded(self, op, param_count):
        eps = op.error_factor()
        assert 0.0 <= eps < 1.0
        if eps == 0.0:
            # Lossless implies dense-sized: no free lunch in the cost model.
            profile = profile_for(param_count)
            assert op.compressed_bytes(profile) == profile.message_bytes

    @given(op=any_op, param_count=param_counts)
    @settings(max_examples=100, deadline=None)
    def test_purity_repeated_calls_agree(self, op, param_count):
        profile = profile_for(param_count)
        assert op.compressed_bytes(profile) == op.compressed_bytes(profile)
        assert op.error_factor() == op.error_factor()

    @given(op=any_op, param_count=param_counts)
    @settings(max_examples=50, deadline=None)
    def test_no_op_touches_global_rng(self, op, param_count):
        """Ops draw nothing: all compression randomness lives in the
        trainer's dedicated per-worker streams."""
        state_before = np.random.get_state()[1].copy()
        op.compressed_bytes(profile_for(param_count))
        op.error_factor()
        np.testing.assert_array_equal(state_before, np.random.get_state()[1])

    @given(op=any_op)
    @settings(max_examples=50, deadline=None)
    def test_frozen_and_hashable(self, op):
        with pytest.raises(Exception):
            op.name = "mutated"  # frozen dataclasses reject assignment
        assert isinstance(hash(op), int)


class TestMonotoneInFidelity:
    @given(
        lo=fractions, hi=fractions, param_count=param_counts
    )
    @settings(max_examples=100, deadline=None)
    def test_topk_monotone(self, lo, hi, param_count):
        lo, hi = sorted((lo, hi))
        profile = profile_for(param_count)
        assert TopK(k=lo).compressed_bytes(profile) <= TopK(
            k=hi
        ).compressed_bytes(profile)
        assert TopK(k=lo).error_factor() >= TopK(k=hi).error_factor()

    @given(lo=bit_widths, hi=bit_widths, param_count=param_counts)
    @settings(max_examples=100, deadline=None)
    def test_qsgd_monotone(self, lo, hi, param_count):
        lo, hi = sorted((lo, hi))
        profile = profile_for(param_count)
        assert QSGD(bits=lo).compressed_bytes(profile) <= QSGD(
            bits=hi
        ).compressed_bytes(profile)
        assert QSGD(bits=lo).error_factor() >= QSGD(bits=hi).error_factor()

    @given(lo=fractions, hi=fractions, param_count=param_counts)
    @settings(max_examples=100, deadline=None)
    def test_layerwise_monotone(self, lo, hi, param_count):
        lo, hi = sorted((lo, hi))
        profile = profile_for(param_count)
        assert Layerwise(fraction=lo).compressed_bytes(profile) <= Layerwise(
            fraction=hi
        ).compressed_bytes(profile)
        assert (
            Layerwise(fraction=lo).error_factor()
            >= Layerwise(fraction=hi).error_factor()
        )

    def test_full_fidelity_is_lossless_and_dense(self):
        """k=1 / 32 bits / fraction=1 all collapse to the identity op's
        numbers (the dense-fallback cap at work for top-k, whose sparse
        encoding would otherwise *exceed* dense)."""
        for op in (TopK(k=1.0), QSGD(bits=8 * BYTES_PER_PARAM), Layerwise(fraction=1.0)):
            assert op.error_factor() == 0.0
            for profile in MODEL_ZOO.values():
                assert op.compressed_bytes(profile) == profile.message_bytes


class TestValidation:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown compression op"):
            make_compression_op("gzip")

    @pytest.mark.parametrize("bad_k", [0.0, -0.1, 1.5])
    def test_topk_rejects_bad_fraction(self, bad_k):
        with pytest.raises(ValueError, match="topk"):
            make_compression_op("topk", bad_k) if bad_k else TopK(k=bad_k)

    @pytest.mark.parametrize("bad_bits", [0, -1, 33])
    def test_qsgd_rejects_bad_bits(self, bad_bits):
        with pytest.raises(ValueError, match="qsgd"):
            QSGD(bits=bad_bits)

    def test_qsgd_rejects_non_integral_param(self):
        with pytest.raises(ValueError, match="integral"):
            make_compression_op("qsgd", 7.5)

    @pytest.mark.parametrize("bad_fraction", [0.0, -0.5, 2.0])
    def test_layerwise_rejects_bad_fraction(self, bad_fraction):
        with pytest.raises(ValueError, match="layerwise"):
            Layerwise(fraction=bad_fraction)

    def test_none_rejects_any_param(self):
        with pytest.raises(ValueError, match="takes no parameter"):
            make_compression_op("none", 0.5)


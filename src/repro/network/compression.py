"""Message-compression operators: ``bytes = f(compression_op, model)``.

The paper's cost model charges the full float32 model per transfer, so its
only lever against a slow link is *routing around it* (NetMax's adaptive
policy). This module adds the other lever -- *shrinking the message* -- as
a first-class, composable dimension, following the taxonomy of the FL
communication-efficiency survey and L-FGADMM (Elgabli et al., PAPERS.md):

- ``none`` -- the identity op; dense float32, bit-identical to today;
- ``topk`` -- top-k sparsification: keep the ``k`` fraction of coordinates
  with the largest magnitude, shipping value + coordinate index per
  survivor;
- ``qsgd`` -- QSGD-style stochastic quantization to ``b`` bits per
  parameter plus one dense float32 norm scale per message;
- ``layerwise`` -- L-FGADMM-style partial exchange: each round ships an
  alternating subset of layers (a ``fraction`` of the parameters) as dense
  float32, with no index overhead because layer boundaries are static.

Every op satisfies one contract, enforced for the whole registry by the
invariant suite (``tests/properties/test_compression_invariants.py``):

1. ``compressed_bytes(profile)`` is a positive int and **never exceeds**
   the dense ``profile.message_bytes`` (an encoding that beats dense only
   sometimes falls back to dense -- real senders do exactly that);
2. bytes are monotone in the op's fidelity parameter (more kept
   coordinates / more bits / more layers never shrinks the message);
3. ``error_factor()`` lies in ``[0, 1)``, is ``0`` exactly for lossless
   ops, and is monotone *decreasing* in fidelity;
4. both methods are **pure**: no RNG draws, no hidden state, same answer
   on every call. All run-time randomness of the accuracy-impact model
   lives in the trainer's dedicated ``[seed, _COMPRESSION_STREAM, worker]``
   streams (``repro/algorithms/base.py``), so the ``none`` path consumes
   zero draws and existing seeds reproduce bit-identically.

``error_factor`` is the knob of the accuracy-impact model: it is the op's
relative residual energy ``E||C(d) - d||^2 / ||d||^2`` under the standard
contraction property of compressed gossip (``E||C(d)-d||^2 <=
(1-delta)||d||^2`` with ``delta`` the kept energy fraction), taken at the
energy-uniform worst case. Trainers turn it into a multiplicative
noise/contraction on the pulled model difference -- see
``DecentralizedTrainer.pulled_params``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import ClassVar

from repro.network.costmodel import BYTES_PER_PARAM, ModelCostProfile

__all__ = [
    "INDEX_BYTES",
    "CompressionOp",
    "NoCompression",
    "TopK",
    "QSGD",
    "Layerwise",
    "COMPRESSION_OPS",
    "compression_op_names",
    "make_compression_op",
]

# Coordinate index shipped with every surviving top-k value: uint32, which
# addresses the zoo's largest model (VGG19, 143.7M parameters) and matches
# the common sparse gradient encodings.
INDEX_BYTES = 4


class CompressionOp(abc.ABC):
    """One message-compression operator (see the module contract above).

    Implementations are frozen dataclasses: parameters are validated at
    construction, instances are immutable and hashable, and both contract
    methods are pure functions of ``(self, profile)``.
    """

    name: ClassVar[str]

    @abc.abstractmethod
    def compressed_bytes(self, profile: ModelCostProfile) -> int:
        """Wire bytes of one compressed model message for ``profile``."""

    @abc.abstractmethod
    def error_factor(self) -> float:
        """Relative residual energy in ``[0, 1)``; ``0`` = lossless."""

    @classmethod
    def from_param(cls, param: float) -> "CompressionOp":
        """Build from the scenario axis's single ``compression_param``.

        ``0.0`` (the axis default) means "the op's own default"; subclasses
        with a fidelity knob map any other value onto it.
        """
        if param:
            raise ValueError(
                f"compression op {cls.name!r} takes no parameter, got {param!r}"
            )
        return cls()


def compression_op_names() -> list[str]:
    """All op names, sorted."""
    return sorted(COMPRESSION_OPS)


def make_compression_op(name: str, param: float = 0.0) -> CompressionOp:
    """Instantiate an op from ``(name, compression_param)``.

    The single numeric parameter is the op's fidelity knob (``topk``: kept
    fraction ``k``; ``qsgd``: bits ``b``; ``layerwise``: layer fraction);
    ``0.0`` selects the op's default. Invalid names and parameters raise
    ``ValueError`` -- the scenario registry builds through this, and a
    sweep builds every scenario at spec construction, so a bad grid dies
    in a dry run, never after hours of cells.
    """
    if name not in COMPRESSION_OPS:
        raise ValueError(
            f"unknown compression op {name!r}; valid: {compression_op_names()}"
        )
    return COMPRESSION_OPS[name].from_param(float(param))


@dataclass(frozen=True)
class NoCompression(CompressionOp):
    """The identity op: dense float32, zero error, zero RNG draws.

    ``compressed_bytes`` equals ``profile.message_bytes`` exactly (same
    int), so a trainer handed this op is bit-identical to one handed no op
    at all -- the golden-regression layer pins that equivalence.
    """

    name: ClassVar[str] = "none"

    def compressed_bytes(self, profile: ModelCostProfile) -> int:
        return profile.message_bytes

    def error_factor(self) -> float:
        return 0.0


@dataclass(frozen=True)
class TopK(CompressionOp):
    """Top-k sparsification: ship the largest-magnitude ``k`` fraction.

    Each survivor costs a float32 value plus a uint32 coordinate index
    (``INDEX_BYTES``), so the sparse encoding only wins below
    ``k = BYTES_PER_PARAM / (BYTES_PER_PARAM + INDEX_BYTES)`` (= 1/2);
    past that the sender falls back to the dense message, which
    :meth:`compressed_bytes` models with an explicit cap.
    """

    k: float = 0.1

    name: ClassVar[str] = "topk"

    def __post_init__(self) -> None:
        if not 0.0 < self.k <= 1.0:
            raise ValueError(f"topk needs a kept fraction in (0, 1], got {self.k}")

    @classmethod
    def from_param(cls, param: float) -> "TopK":
        return cls() if param == 0.0 else cls(k=param)

    def compressed_bytes(self, profile: ModelCostProfile) -> int:
        kept = -(-profile.param_count * self.k // 1)  # ceil without math import
        sparse = int(kept) * (BYTES_PER_PARAM + INDEX_BYTES)
        return min(profile.message_bytes, max(sparse, 1))

    def error_factor(self) -> float:
        # Residual energy at the energy-uniform worst case: dropping a
        # (1-k) fraction of coordinates drops at most that energy fraction
        # (top-k selection keeps >= k of it by construction).
        return 1.0 - self.k


@dataclass(frozen=True)
class QSGD(CompressionOp):
    """QSGD-style stochastic uniform quantization to ``bits`` per value.

    The wire format is ``bits`` per parameter plus one dense float32 norm
    scale for the whole message (the per-message ``||v||`` QSGD transmits
    to de-normalize). Unbiased stochastic rounding onto ``2^bits`` levels
    of the normalized value has per-coordinate relative variance bounded by
    the level spacing, which :meth:`error_factor` summarizes as ``2^-bits``
    -- halving with every added bit, the survey's standard rate.
    """

    bits: int = 8

    name: ClassVar[str] = "qsgd"

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or isinstance(self.bits, bool):
            raise ValueError(f"qsgd bits must be an int, got {self.bits!r}")
        if not 1 <= self.bits <= 8 * BYTES_PER_PARAM:
            raise ValueError(
                f"qsgd bits must be in [1, {8 * BYTES_PER_PARAM}], got {self.bits}"
            )

    @classmethod
    def from_param(cls, param: float) -> "QSGD":
        if param == 0.0:
            return cls()
        if param != int(param):
            raise ValueError(f"qsgd bits must be integral, got {param!r}")
        return cls(bits=int(param))

    def compressed_bytes(self, profile: ModelCostProfile) -> int:
        packed = -(-profile.param_count * self.bits // 8)  # ceil of bits/8
        return min(profile.message_bytes, int(packed) + BYTES_PER_PARAM)

    def error_factor(self) -> float:
        # Level spacing of 2^bits uniform levels; 32 bits is lossless by
        # convention (the dense-fallback cap makes it the dense message).
        if self.bits >= 8 * BYTES_PER_PARAM:
            return 0.0
        return 2.0 ** (-self.bits)


@dataclass(frozen=True)
class Layerwise(CompressionOp):
    """L-FGADMM-style layer-wise alternating exchange.

    Each round ships a different subset of layers covering a ``fraction``
    of the parameters, dense float32 within each layer. Layer boundaries
    are static and known to both ends, so unlike top-k there is no index
    overhead; the receiver keeps its stale values for the unshipped layers,
    which is exactly the residual :meth:`error_factor` charges.
    """

    fraction: float = 0.5

    name: ClassVar[str] = "layerwise"

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"layerwise needs a layer fraction in (0, 1], got {self.fraction}"
            )

    @classmethod
    def from_param(cls, param: float) -> "Layerwise":
        return cls() if param == 0.0 else cls(fraction=param)

    def compressed_bytes(self, profile: ModelCostProfile) -> int:
        shipped = -(-profile.param_count * self.fraction // 1)  # ceil
        return min(profile.message_bytes, max(int(shipped) * BYTES_PER_PARAM, 1))

    def error_factor(self) -> float:
        return 1.0 - self.fraction


COMPRESSION_OPS: dict[str, type[CompressionOp]] = {
    op.name: op for op in (NoCompression, TopK, QSGD, Layerwise)
}

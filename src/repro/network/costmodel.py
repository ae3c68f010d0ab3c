"""The paper's model zoo at true scale, plus compute/communication timing.

The learning dynamics of this reproduction come from small numpy models
(:mod:`repro.ml.models`); the *systems* dynamics -- how long an iteration
takes, how many bytes cross which link -- come from this module at the
paper's scale:

========== ============== ==========================
model      parameters     source
========== ============== ==========================
MobileNet    4.2 M        Section V-A
GoogLeNet    6.8 M        Appendix G
ResNet18    11.7 M        Section V-A
ResNet50    25.6 M        Section V-A
VGG19      143.7 M        Section V-A
========== ============== ==========================

Messages carry float32 parameters (4 bytes each), matching the PyTorch
setup. Compute times are per-iteration GPU timings calibrated so that, on
the paper's 1 Gbps inter-machine links, communication dominates computation
(Section II-B: "communication time usually dominates"; Fig. 3 shows
inter-machine iteration time up to 4x intra-machine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.network.links import LinkSpeedModel

if TYPE_CHECKING:  # import cycle: compression builds on this module's types
    from repro.network.compression import CompressionOp

__all__ = [
    "BYTES_PER_PARAM",
    "ModelCostProfile",
    "MODEL_ZOO",
    "get_cost_profile",
    "CommunicationModel",
    "ComputeModel",
]

# Wire size of one uncompressed parameter: float32, as in the paper's
# PyTorch stack. This is the *dense* encoding every compression op is
# measured against -- quantization ops must derive their own per-value
# byte counts from their bit width, never from this constant, or a
# b-bit payload would silently double-count the float32 assumption.
BYTES_PER_PARAM = 4


@dataclass(frozen=True)
class ModelCostProfile:
    """Systems-level cost description of one paper architecture.

    Attributes:
        name: architecture name (lowercase).
        param_count: number of trainable parameters (paper scale).
        compute_time_s: GPU time of one local iteration (forward + backward)
            at ``reference_batch`` samples.
        reference_batch: batch size at which ``compute_time_s`` holds;
            compute scales linearly in batch size around it.
    """

    name: str
    param_count: int
    compute_time_s: float
    reference_batch: int = 128

    def __post_init__(self) -> None:
        if self.param_count < 1:
            raise ValueError("param_count must be positive")
        if self.compute_time_s <= 0:
            raise ValueError("compute_time_s must be positive")
        if self.reference_batch < 1:
            raise ValueError("reference_batch must be positive")

    @property
    def message_bytes(self) -> int:
        """Bytes of one full model transfer (float32 per parameter)."""
        return self.param_count * BYTES_PER_PARAM


MODEL_ZOO: dict[str, ModelCostProfile] = {
    profile.name: profile
    for profile in (
        ModelCostProfile("mobilenet", param_count=4_200_000, compute_time_s=0.08),
        ModelCostProfile("googlenet", param_count=6_800_000, compute_time_s=0.10),
        ModelCostProfile("resnet18", param_count=11_700_000, compute_time_s=0.15),
        ModelCostProfile("resnet50", param_count=25_600_000, compute_time_s=0.30),
        ModelCostProfile("vgg19", param_count=143_700_000, compute_time_s=0.45),
    )
}


def get_cost_profile(name: str) -> ModelCostProfile:
    """Look up a zoo entry by case-insensitive name."""
    key = name.lower()
    if key not in MODEL_ZOO:
        raise KeyError(f"unknown model {name!r}; valid: {sorted(MODEL_ZOO)}")
    return MODEL_ZOO[key]


class CommunicationModel:
    """Maps (pair, bytes, time) to a transfer duration.

    ``comm_time = latency + bytes / bandwidth`` on the current link state.
    Self-transfers are free (a worker "pulling from itself" is the paper's
    ``p_ii`` case: no network activity at all).

    **Flow sharing.** Real worker NICs are shared: when several transfers
    touch the same endpoint concurrently, each gets a fraction of the
    bandwidth (the multi-tenant congestion of Section I). Asynchronous
    trainers therefore bracket transfers with :meth:`begin_transfer` /
    :meth:`end_transfer`; the duration is computed with the bandwidth
    divided by the busiest endpoint's concurrent flow count at start time
    (a standard fair-share approximation -- in-flight transfers are not
    re-planned when flows come and go).

    **Compression.** An optional
    :class:`~repro.network.compression.CompressionOp` shrinks what a model
    transfer puts on the wire: :meth:`payload_bytes` maps a cost profile to
    the op's compressed message size, and trainers route their
    ``message_bytes`` through it so every transfer duration reflects the
    compressed payload. ``None`` (and the ``none`` op) charge the dense
    float32 size, bit-identical to the pre-compression cost model.
    """

    def __init__(
        self,
        links: LinkSpeedModel,
        flow_sharing: bool = True,
        compression: "CompressionOp | None" = None,
    ):
        self.links = links
        self.flow_sharing = flow_sharing
        self.compression = compression
        # NICs are full duplex: a transfer b -> a loads b's uplink and a's
        # downlink, so the two directions are tracked separately. Plain lists:
        # these counters are bumped on every transfer, where numpy scalar
        # indexing is pure overhead.
        self._inbound = [0] * links.num_workers
        self._outbound = [0] * links.num_workers

    @property
    def num_workers(self) -> int:
        return self.links.num_workers

    def active_flows(self, worker: int) -> int:
        """Number of in-flight transfers touching ``worker`` (either way)."""
        return self._inbound[worker] + self._outbound[worker]

    def payload_bytes(self, profile: ModelCostProfile) -> int:
        """Bytes one model transfer of ``profile`` puts on the wire.

        The attached compression op's compressed size, or the dense
        float32 ``profile.message_bytes`` when no op is attached.
        """
        if self.compression is None:
            return profile.message_bytes
        return self.compression.compressed_bytes(profile)

    def _latency_and_total(
        self, a: int, b: int, nbytes: float, time: float
    ) -> tuple[float, float]:
        """``(latency, latency + nbytes / bandwidth)`` of one uncontended
        transfer ``b -> a``: one bandwidth and one latency query."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if a == b:
            return 0.0, 0.0
        bandwidth = self.links.bandwidth(a, b, time)
        latency = self.links.latency(a, b, time)
        return latency, latency + nbytes / bandwidth

    def comm_time(self, a: int, b: int, nbytes: float, time: float) -> float:
        """Seconds to move ``nbytes`` from ``b`` to ``a`` starting at ``time``.

        Contention-free figure; use :meth:`begin_transfer` for shared flows.
        """
        return self._latency_and_total(a, b, nbytes, time)[1]

    def begin_transfer(self, receiver: int, sender: int, nbytes: float, time: float) -> float:
        """Register a transfer ``sender -> receiver``; return its duration.

        The duration accounts for fair-share contention at the busier of the
        two directional endpoints (receiver downlink vs. sender uplink) at
        start time. Callers must pair every ``begin_transfer`` with an
        :meth:`end_transfer` when the duration elapses. Self-transfers are
        free and register nothing.
        """
        if receiver == sender:
            return 0.0
        latency, base = self._latency_and_total(receiver, sender, nbytes, time)
        self._inbound[receiver] += 1
        self._outbound[sender] += 1
        if not self.flow_sharing:
            return base
        share = max(self._inbound[receiver], self._outbound[sender])
        return latency + (base - latency) * share

    def end_transfer(self, receiver: int, sender: int) -> None:
        """Release a transfer registered by :meth:`begin_transfer`."""
        if receiver == sender:
            return
        if self._inbound[receiver] <= 0 or self._outbound[sender] <= 0:
            raise RuntimeError(
                f"end_transfer({receiver}, {sender}) without a matching begin_transfer"
            )
        self._inbound[receiver] -= 1
        self._outbound[sender] -= 1

    def pairwise_matrix(self, nbytes: float, time: float) -> np.ndarray:
        """``(M, M)`` matrix of transfer times at ``time`` (diagonal 0)."""
        m = self.num_workers
        out = np.zeros((m, m))
        for a in range(m):
            for b in range(m):
                if a != b:
                    out[a, b] = self.comm_time(a, b, nbytes, time)
        return out


class ComputeModel:
    """Per-worker local computation time ``C_i`` for a given model profile.

    ``C_i = profile.compute_time_s * (batch / reference_batch)``: workers
    differ only in their batch size (the paper's GPUs are identical
    RTX 2080 Ti), and a compute time is a pure function of it -- no
    randomness is consumed.
    """

    def __init__(self, profile: ModelCostProfile, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.profile = profile
        self.num_workers = num_workers
        # Seconds per sample, precomputed once: compute_time sits on the
        # simulator's per-iteration hot path.
        self._per_sample = profile.compute_time_s / profile.reference_batch

    def compute_time(self, worker: int, batch_size: int) -> float:
        """Duration of one gradient computation on ``worker``."""
        if not 0 <= worker < self.num_workers:
            raise ValueError(f"worker {worker} out of range")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return self._per_sample * batch_size

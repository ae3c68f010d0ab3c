"""Section III-D / V-H extension: AD-PSGD steered by the Network Monitor.

The monitor's adaptive neighbor-selection probabilities are reused verbatim,
but the model update stays AD-PSGD's plain half-and-half average -- unlike
NetMax, which weights the pulled model by ``1/p_im``. Section V-H finds this
variant beats standard AD-PSGD on wall-clock time but converges slightly
slower per epoch than NetMax because equal weights under-represent the
rarely-selected (slow-link) neighbors.
"""

from __future__ import annotations

from repro.algorithms.netmax import NetMaxTrainer

__all__ = ["ADPSGDMonitorTrainer"]


class ADPSGDMonitorTrainer(NetMaxTrainer):
    """NetMax's monitor + AD-PSGD's fixed-weight averaging."""

    name = "adpsgd-monitor"
    # AD-PSGD's half-and-half average in place of NetMax's 1/p_im weight.
    mixing_weight = 0.5

    def _apply_pull(self, worker: int, peer: int, lr: float, p_selected: float) -> None:
        model = self.tasks[worker].model
        # pulled_params is the compression accuracy hook; without a lossy
        # op it is exactly the peer's parameters.
        peer_params = self.pulled_params(worker, peer)
        blended = (
            (1.0 - self.mixing_weight) * model._params
            + self.mixing_weight * peer_params
        )
        model.set_params(blended)

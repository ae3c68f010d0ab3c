"""NetMax core: the paper's contribution.

- :mod:`repro.core.mixing` -- the random update matrices ``D^k`` (Eq. 19)
  and the expected mixing matrix ``Y_P = E[(D^k)^T D^k]`` (Eq. 20-22), whose
  second-largest eigenvalue governs convergence.
- :mod:`repro.core.policy` -- Algorithm 3: feasible intervals (Appendix A),
  the per-worker LP of Eq. (14), and the nested grid search minimizing
  predicted convergence time.
- :mod:`repro.core.convergence` -- Theorems 1-3 bounds.
- :mod:`repro.core.consensus` -- the worker-side consensus SGD state machine
  of Algorithm 2 (two-step update, EMA iteration times).
- :mod:`repro.core.monitor` -- the Network Monitor of Algorithm 1.
"""

from repro.core.mixing import (
    gamma_matrix,
    expected_mixing_matrix,
    sampled_mixing_matrix,
    random_update_matrix,
    second_largest_eigenvalue,
    is_doubly_stochastic,
)
from repro.core.policy import (
    PolicyGenerationError,
    PolicyResult,
    PolicyCache,
    PolicyCacheStats,
    quantize_times,
    rho_interval,
    t_interval,
    solve_policy_lp,
    generate_policy,
    uniform_policy,
)
from repro.core.convergence import (
    deviation_bound,
    iterations_to_epsilon,
    convergence_time,
    stable_lr_upper_bound,
)
from repro.core.consensus import ConsensusWorker
from repro.core.monitor import NetworkMonitor

__all__ = [
    "gamma_matrix",
    "expected_mixing_matrix",
    "sampled_mixing_matrix",
    "random_update_matrix",
    "second_largest_eigenvalue",
    "is_doubly_stochastic",
    "PolicyGenerationError",
    "PolicyResult",
    "PolicyCache",
    "PolicyCacheStats",
    "quantize_times",
    "rho_interval",
    "t_interval",
    "solve_policy_lp",
    "generate_policy",
    "uniform_policy",
    "deviation_bound",
    "iterations_to_epsilon",
    "convergence_time",
    "stable_lr_upper_bound",
    "ConsensusWorker",
    "NetworkMonitor",
]

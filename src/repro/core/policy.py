"""Algorithm 3: communication policy generation.

Given the measured iteration-time matrix ``T = [t_im]`` this module solves
the paper's optimization problem (Eq. 8-13): find neighbor-selection
probabilities ``P`` minimizing total convergence time ``k * t``, where the
iteration count ``k`` is controlled by ``lambda_2(Y_P)`` and the mean step
time ``t`` by which links the policy favors.

The nested grid search of Algorithm 3 is implemented verbatim:

- outer loop over ``K`` values of the consensus weight
  ``rho in (L_rho, U_rho] = (0, 0.5/alpha]``;
- inner loop over ``R`` values of the global mean iteration time
  ``t in [L, U]`` (Appendix A intervals, Eq. 25-28);
- for each ``(rho, t)`` an LP (Eq. 14) minimizing ``sum_i p_ii`` subject to
  the feasibility constraints Eq. (10)-(13). Because neither the objective
  nor any constraint couples rows of ``P``, the LP decomposes into one small
  LP per worker. Each has two equality rows and box bounds, so its optimum
  is read off a convex envelope (:func:`solve_policy_lp`) -- no solver runs.

A feasible policy forces every worker's mean iteration time to ``M * t``,
hence uniform global-step probabilities ``p_i = 1/M`` (Lemma 1), under
which ``Y_P`` is doubly stochastic and ``lambda = lambda_2 < 1`` (Theorem 3).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.convergence import convergence_time
from repro.core.mixing import expected_mixing_matrix, second_largest_eigenvalue

__all__ = [
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
]

# Strict inequality Eq. (11) is implemented as >= with this relative margin,
# keeping Y_P's neighbor entries strictly positive (Lemma 2 needs it).
_STRICT_MARGIN = 1e-6

# Relative tolerance of solve_policy_lp's feasibility test: a budget within
# this of either end of a worker's feasible range is clamped onto it.
_FEASIBILITY_TOL = 1e-9


class PolicyGenerationError(RuntimeError):
    """No feasible policy exists for the given times/graph/learning rate."""


@dataclass(frozen=True)
class PolicyResult:
    """Outcome of Algorithm 3.

    Attributes:
        policy: the selected ``P`` (rows sum to 1, diagonal = ``p_ii``).
        rho: the consensus weight paired with the policy.
        t_bar: the global mean iteration time the policy enforces.
        lambda2: second-largest eigenvalue of ``Y_P``.
        predicted_convergence_time: ``t_bar * ln(eps) / ln(lambda2)``.
        epsilon: the accuracy target used in the prediction.
        candidates_evaluated: grid points whose LP was feasible.
        candidates_infeasible: grid points skipped (LP infeasible or empty
            ``t`` interval).
        rho_per_worker: per-worker consensus weights, set only by the
            monitor's neighborhood-local mode (``policy_scope="local"``)
            where each worker's ego solve picks its own ``rho``; ``None``
            for a global solve, where ``rho`` applies uniformly.
    """

    policy: np.ndarray
    rho: float
    t_bar: float
    lambda2: float
    predicted_convergence_time: float
    epsilon: float
    candidates_evaluated: int = 0
    candidates_infeasible: int = 0
    rho_per_worker: np.ndarray | None = None


def rho_interval(alpha: float) -> tuple[float, float]:
    """Feasible interval for ``rho``: ``(0, 0.5 / alpha]`` (Appendix A)."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return 0.0, 0.5 / alpha


def t_interval(
    times: np.ndarray, indicator: np.ndarray, alpha: float, rho: float
) -> tuple[float, float]:
    """Feasible interval ``[L, U]`` for the mean iteration time (Eq. 26, 28).

    ``L = max_i (alpha rho / M) sum_m t_im (d_im + d_mi)`` -- the cheapest
    mean time any worker can achieve while honoring the minimum neighbor
    probabilities; ``U = min_i (1/M) max_m t_im d_im`` -- no worker can
    average above its slowest link. ``L > U`` means no feasible ``t``
    exists for this ``rho``.
    """
    times = np.asarray(times, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    if times.shape != indicator.shape or times.ndim != 2:
        raise ValueError("times and indicator must be matching square matrices")
    if np.any(times < 0):
        raise ValueError("iteration times must be non-negative")
    if alpha <= 0 or rho <= 0:
        raise ValueError("alpha and rho must be positive")
    m = times.shape[0]
    symmetric_d = indicator + indicator.T
    lower = float(np.max(alpha * rho / m * np.sum(times * symmetric_d, axis=1)))
    per_worker_max = np.max(times * indicator, axis=1)
    if np.any(per_worker_max <= 0):
        raise ValueError("every worker needs at least one neighbor with positive time")
    upper = float(np.min(per_worker_max / m))
    return lower, upper


def solve_policy_lp(
    times: np.ndarray,
    indicator: np.ndarray,
    alpha: float,
    rho: float,
    t_bar: float,
) -> np.ndarray | None:
    """The LP of Eq. (14) for a fixed ``(rho, t_bar)``, in closed form.

    Decomposes into one LP per worker ``i`` over variables
    ``{p_ii} + {p_im : d_im = 1}``:

        min p_ii
        s.t. sum_m t_im p_im = M * t_bar          (Eq. 10)
             p_ii + sum_m p_im = 1                (Eq. 13)
             p_im >= alpha rho (d_im + d_mi)      (Eq. 11, strict via margin)
             p_ii >= 0

    **Degeneracy tie-break.** Whenever the time budget admits full neighbor
    mass (``p_ii = 0``), the paper's objective has a whole face of optima.
    Any linear cost in ``t_im * p_im`` is constant on that face (the budget
    is an equality constraint), so the objective carries a tiny ``t_im^2``
    cost, ``c_im = 1e-3 (t_im / max_m t_im)^2``: among allocations with a
    fixed time budget it concentrates probability on the *fast* links --
    the paper's stated intent ("neighbors with high-speed links are selected
    with high probability") -- and is far too small to trade against the
    primary ``p_ii`` objective.

    **Closed form.** Put every neighbor at its Eq. (11) floor; what is left
    is a mass ``S = 1 - sum floors`` to spread at mean time ``tau = B / S``,
    ``B = M t_bar - sum t_im floor_im`` (the upper bounds ``p <= 1`` are then
    implied). With two equality rows the optimum is the lower convex envelope
    of the points ``(0, 1)`` for ``p_ii`` and ``(t_im, c_im)`` for the
    neighbors, read at ``tau``. The neighbor points sit on a convex parabola
    and the chord from ``(0, 1)`` is steepest to the fastest neighbor
    (``(c - 1) / t`` increases in ``t``), so the envelope's vertices are
    ``p_ii`` followed by the distinct neighbor times in increasing order: the
    mass splits linearly between the two vertices that bracket ``tau`` --
    ``p_ii`` and the fastest neighbor when ``tau`` is below every time -- and
    no other entry leaves its floor.

    **Ties.** Mass landing on a time shared by several neighbors is split
    equally among them, so permuting a worker's neighbors permutes its row
    and all-equal times give a uniform row.

    **Feasibility.** A worker is infeasible iff ``S < 0``, ``B < 0`` or
    ``B > S max_m t_im``, each decided with the relative tolerance
    ``_FEASIBILITY_TOL`` (of 1 for ``S``, of ``M t_bar`` for ``B``) and then
    clamped: a degree-1 worker at ``t_bar = U`` is feasible whichever way
    its budget rounds, and the last ``rho`` step of :func:`generate_policy`
    (``L == U``, the floors' strict margin overdrawing the budget by a
    relative ``1e-6``) is infeasible on every platform.

    Returns the assembled ``(M, M)`` policy, or ``None`` if any worker's LP
    is infeasible (non-neighbor entries are zero, honoring Eq. 12).
    """
    times = np.asarray(times, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    m = times.shape[0]
    if t_bar <= 0:
        raise ValueError(f"t_bar must be positive, got {t_bar}")
    neighbors = indicator > 0
    if not neighbors.any(axis=1).all():
        return None  # isolated worker: no feasible communication at all
    times = np.where(neighbors, times, 0.0)
    floor = alpha * rho * (1.0 + _STRICT_MARGIN)
    policy = np.where(neighbors, floor * (indicator + indicator.T), 0.0)
    budget = m * t_bar
    mass = 1.0 - policy.sum(axis=1, keepdims=True)
    time_left = budget - (times * policy).sum(axis=1, keepdims=True)
    slowest = times.max(axis=1, keepdims=True)
    slack = _FEASIBILITY_TOL * budget
    if mass.min() < -_FEASIBILITY_TOL or time_left.min() < -slack:
        return None
    mass = np.maximum(mass, 0.0)
    if np.any(time_left > mass * slowest + slack):
        return None
    time_left = np.clip(time_left, 0.0, mass * slowest)
    tau = np.divide(time_left, mass, out=np.zeros_like(mass), where=mass > 0)
    # The envelope vertices bracketing tau; time 0 is p_ii's vertex.
    below = neighbors & (times <= tau)
    t_low = np.where(below, times, 0.0).max(axis=1, keepdims=True)
    t_high = np.where(neighbors & ~below, times, np.inf).min(axis=1, keepdims=True)
    on_high = np.clip((time_left - mass * t_low) / (t_high - t_low), 0.0, mass)
    on_low = mass - on_high
    at_low = below & (times == t_low)
    at_high = times == t_high
    shared_low = at_low.sum(axis=1, keepdims=True)
    shared_high = at_high.sum(axis=1, keepdims=True)
    policy += np.where(at_low, on_low / np.maximum(shared_low, 1), 0.0)
    policy += np.where(at_high, on_high / np.maximum(shared_high, 1), 0.0)
    policy[np.diag_indices(m)] = np.where(shared_low == 0, on_low, 0.0)[:, 0]
    return policy


def generate_policy(
    times: np.ndarray,
    indicator: np.ndarray,
    alpha: float,
    outer_rounds: int = 10,
    inner_rounds: int = 10,
    epsilon: float = 1e-2,
) -> PolicyResult:
    """Algorithm 3: nested grid search for the best feasible policy.

    Args:
        times: measured iteration-time matrix ``[t_im]`` (seconds); only
            neighbor entries are read.
        indicator: adjacency indicators ``d_im``.
        alpha: current learning rate.
        outer_rounds: ``K``, number of ``rho`` values searched.
        inner_rounds: ``R``, number of ``t`` values per ``rho``.
        epsilon: accuracy target in the convergence-time prediction
            (Eq. 9's ``lambda^k <= eps``).

    Returns:
        The best :class:`PolicyResult` over the grid.

    Raises:
        PolicyGenerationError: if every grid point is infeasible (e.g. the
            learning rate is too large for the graph's degrees).
    """
    if outer_rounds < 1 or inner_rounds < 1:
        raise ValueError("outer_rounds and inner_rounds must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    times = np.asarray(times, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    if np.any((indicator > 0) & ~(times > 0)):
        raise ValueError("all neighbor iteration times must be positive")

    lower_rho, upper_rho = rho_interval(alpha)
    # Tighten U_rho by the L <= U condition of the inner interval: the
    # minimum-probability floors force every worker to spend time on its
    # slow links, so L(rho) = rho * max_i (alpha/M) sum_m t_im (d_im + d_mi)
    # must stay below U = min_i max_m t_im d_im / M. Under extreme slowdowns
    # (the paper's 100x) this cap is far below 0.5/alpha, and a uniform grid
    # over the uncapped interval would never land in the feasible band.
    m = times.shape[0]
    symmetric_d = indicator + indicator.T
    floor_cost = float(np.max(alpha / m * np.sum(times * symmetric_d, axis=1)))
    per_worker_max = np.max(times * indicator, axis=1)
    upper_t_global = float(np.min(per_worker_max / m))
    if floor_cost > 0:
        upper_rho = min(upper_rho, upper_t_global / floor_cost)
    delta_rho = (upper_rho - lower_rho) / outer_rounds

    best: PolicyResult | None = None
    evaluated = 0
    infeasible = 0
    for k in range(1, outer_rounds + 1):
        rho = lower_rho + k * delta_rho
        lower_t, upper_t = t_interval(times, indicator, alpha, rho)
        if lower_t > upper_t:
            infeasible += inner_rounds
            continue
        delta_t = (upper_t - lower_t) / inner_rounds
        for r in range(1, inner_rounds + 1):
            t_bar = lower_t + r * delta_t
            policy = solve_policy_lp(times, indicator, alpha, rho, t_bar)
            if policy is None:
                infeasible += 1
                continue
            mixing = expected_mixing_matrix(policy, indicator, alpha, rho)
            lambda2 = second_largest_eigenvalue(mixing)
            if not 0.0 < lambda2 < 1.0:
                infeasible += 1
                continue
            evaluated += 1
            predicted = convergence_time(t_bar, lambda2, epsilon)
            if best is None or predicted < best.predicted_convergence_time:
                best = PolicyResult(
                    policy=policy,
                    rho=rho,
                    t_bar=t_bar,
                    lambda2=lambda2,
                    predicted_convergence_time=predicted,
                    epsilon=epsilon,
                )
    if best is None:
        raise PolicyGenerationError(
            f"no feasible policy: alpha={alpha}, grid {outer_rounds}x{inner_rounds} "
            "exhausted (learning rate may be too large for this topology)"
        )
    return PolicyResult(
        policy=best.policy,
        rho=best.rho,
        t_bar=best.t_bar,
        lambda2=best.lambda2,
        predicted_convergence_time=best.predicted_convergence_time,
        epsilon=best.epsilon,
        candidates_evaluated=evaluated,
        candidates_infeasible=infeasible,
    )


# -- the signature-keyed policy cache ------------------------------------------


# Significant digits the cache keeps of every measured time (see
# :func:`quantize_times`, whose default it is).
_TIME_DIGITS = 3


def quantize_times(times: np.ndarray, digits: int = _TIME_DIGITS) -> np.ndarray:
    """Round every positive entry to ``digits`` significant digits.

    The cache's canonical form for a time matrix: EMA-smoothed measurements
    essentially never repeat bit-for-bit, but under a dynamic graph the
    *regimes* they settle into do. Quantizing to a relative precision of
    ``10^-(digits-1)`` maps all measurements within ~0.1% (at the default 3)
    of each other onto one key -- far below the 2x-100x swings the policy
    actually reacts to -- so recurring subgraphs with recurring time regimes
    become cache hits. Deterministic and elementwise; zeros (non-neighbor
    slots) and NaNs pass through unchanged.
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    times = np.asarray(times, dtype=np.float64)
    out = times.copy()
    positive = np.isfinite(times) & (times > 0)
    if np.any(positive):
        values = times[positive]
        scale = 10.0 ** (np.floor(np.log10(values)) - (digits - 1))
        out[positive] = np.round(values / scale) * scale
    return out


@dataclass
class PolicyCacheStats:
    """Counters describing a :class:`PolicyCache`'s activity."""

    hits: int = 0
    cold_solves: int = 0
    infeasible_hits: int = 0
    evictions: int = 0


class PolicyCache:
    """Signature-keyed result cache around :func:`generate_policy`.

    The NetMax monitor re-solves Algorithm 3 every period -- and, on a
    time-varying graph, additionally on every edge-set change. Flapping
    edges make the same few live subgraphs recur; with EMA times quantized
    (:func:`quantize_times`), those re-solves hit this cache instead of
    running the full ``K x R`` LP grid. Keys combine the graph signature
    (adjacency bytes -- callers solving induced subgraphs must fold the
    worker subset into ``signature``), the quantized time matrix, the
    learning rate, and the grid shape; entries are LRU-evicted beyond
    ``max_entries``. Infeasible grids are cached too (a recurring hopeless
    subgraph should not re-pay the full grid search to fail again).

    Misses run :func:`generate_policy` on the *quantized* matrix, so cached
    and freshly solved policies are identical by construction for equal keys.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.stats = PolicyCacheStats()
        self._entries: OrderedDict[bytes, PolicyResult | None] = OrderedDict()

    def _key(
        self,
        signature: bytes,
        quantized: np.ndarray,
        alpha: float,
        outer_rounds: int,
        inner_rounds: int,
        epsilon: float,
    ) -> bytes:
        payload = b"|".join(
            (
                signature,
                quantized.tobytes(),
                repr((float(alpha), int(outer_rounds), int(inner_rounds),
                      float(epsilon))).encode(),
            )
        )
        return hashlib.sha256(payload).digest()

    def generate(
        self,
        times: np.ndarray,
        indicator: np.ndarray,
        alpha: float,
        outer_rounds: int = 10,
        inner_rounds: int = 10,
        epsilon: float = 1e-2,
        signature: bytes | None = None,
    ) -> PolicyResult:
        """Cached :func:`generate_policy` over the quantized time matrix.

        ``signature`` identifies the graph the LP runs on; when omitted it
        is derived from ``indicator`` alone, which is only safe if the
        caller never solves differently-embedded subgraphs of equal shape.

        Raises :class:`PolicyGenerationError` exactly as
        :func:`generate_policy` does (including on cached infeasibility).
        """
        indicator = np.asarray(indicator, dtype=np.float64)
        if signature is None:
            signature = np.packbits(indicator > 0).tobytes()
        quantized = quantize_times(times)
        key = self._key(
            signature, quantized, alpha, outer_rounds, inner_rounds, epsilon
        )
        if key in self._entries:
            entry = self._entries[key]
            self._entries.move_to_end(key)
            if entry is None:
                self.stats.infeasible_hits += 1
                raise PolicyGenerationError(
                    "no feasible policy (cached infeasible grid)"
                )
            self.stats.hits += 1
            return entry
        self.stats.cold_solves += 1
        try:
            result = generate_policy(
                quantized,
                indicator,
                alpha,
                outer_rounds=outer_rounds,
                inner_rounds=inner_rounds,
                epsilon=epsilon,
            )
        except PolicyGenerationError:
            self._store(key, None)
            raise
        result.policy.setflags(write=False)  # shared across cache hits
        self._store(key, result)
        return result

    def _store(self, key: bytes, entry: PolicyResult | None) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)


def uniform_policy(indicator: np.ndarray) -> np.ndarray:
    """The AD-PSGD/GoSGD baseline policy: uniform over neighbors, no self.

    This is also NetMax's starting policy before the first monitor update
    (Algorithm 2, line 2, restricted to actual neighbors).
    """
    indicator = np.asarray(indicator, dtype=np.float64)
    if indicator.ndim != 2 or indicator.shape[0] != indicator.shape[1]:
        raise ValueError("indicator must be square")
    degrees = indicator.sum(axis=1)
    if np.any(degrees == 0):
        raise ValueError("every worker needs at least one neighbor")
    return indicator / degrees[:, None]

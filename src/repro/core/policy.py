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
  LP per worker, which is how we solve it (scipy HiGHS).

A feasible policy forces every worker's mean iteration time to ``M * t``,
hence uniform global-step probabilities ``p_i = 1/M`` (Lemma 1), under
which ``Y_P`` is doubly stochastic and ``lambda = lambda_2 < 1`` (Theorem 3).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

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

# Tolerance of the warm-start vertex certificate (see solve_policy_lp): a
# previous vertex is reused only when it is primal-feasible and provably
# optimal for the new LP within this tolerance. Tight enough that a reused
# vertex can only come from a bit-for-bit repeated worker LP in practice.
_WARM_TOL = 1e-10


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


def _certified_optimal_vertex(
    x: np.ndarray,
    cost: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> bool:
    """LP-duality certificate: is ``x`` an optimal vertex of this LP?

    For ``min c.x  s.t.  A_eq x = b_eq, l <= x <= u`` a feasible ``x`` is
    optimal iff dual multipliers ``y`` exist with reduced costs
    ``r = c - A_eq^T y`` satisfying ``r_j >= 0`` at lower bounds,
    ``r_j <= 0`` at upper bounds, and ``r_j = 0`` on free variables. With
    two equality rows, a non-degenerate vertex has exactly two free
    variables, so ``y`` is the solution of a 2x2 system and the sign check
    is O(n). Degenerate bases (any other free count, or a singular basis)
    are conservatively not certified -- the caller falls back to the solver.
    """
    if np.any(x < lower - _WARM_TOL) or np.any(x > upper + _WARM_TOL):
        return False
    scale = max(1.0, float(np.max(np.abs(b_eq))))
    if np.max(np.abs(a_eq @ x - b_eq)) > _WARM_TOL * scale:
        return False
    at_lower = x <= lower + _WARM_TOL
    at_upper = x >= upper - _WARM_TOL
    free = ~(at_lower | at_upper)
    if int(free.sum()) != 2:
        return False
    basis = a_eq[:, free]
    if abs(np.linalg.det(basis)) < 1e-12:
        return False
    y = np.linalg.solve(basis.T, cost[free])
    reduced = cost - a_eq.T @ y
    if np.any(reduced[at_lower & ~at_upper] < -_WARM_TOL):
        return False
    if np.any(reduced[at_upper & ~at_lower] > _WARM_TOL):
        return False
    return True


def solve_policy_lp(
    times: np.ndarray,
    indicator: np.ndarray,
    alpha: float,
    rho: float,
    t_bar: float,
    warm_start: np.ndarray | None = None,
) -> np.ndarray | None:
    """The LP of Eq. (14) for a fixed ``(rho, t_bar)``.

    Decomposes into one LP per worker ``i`` over variables
    ``{p_ii} + {p_im : d_im = 1}``:

        min p_ii
        s.t. sum_m t_im p_im = M * t_bar          (Eq. 10)
             p_ii + sum_m p_im = 1                (Eq. 13)
             p_im >= alpha rho (d_im + d_mi)      (Eq. 11, strict via margin)
             p_ii >= 0

    **Degeneracy tie-break.** Whenever the time budget admits full neighbor
    mass (``p_ii = 0``), the paper's objective has a whole face of optima
    and a vertex solver may return a slow-link-heavy one. Any linear cost in
    ``t_im * p_im`` is constant on that face (the budget is an equality
    constraint), so we add a tiny ``t_im^2`` cost: among allocations with a
    fixed time budget it concentrates probability on the *fast* links --
    the paper's stated intent ("neighbors with high-speed links are selected
    with high probability"). The weight is small enough never to trade
    against the primary ``p_ii`` objective.

    **Warm start.** ``warm_start`` is a previous ``(M, M)`` policy (usually
    the last solution for the same adjacency signature). Per worker, the
    previous vertex is reused *without* calling the solver when an LP-duality
    certificate proves it is still optimal for the new constraints
    (:func:`_certified_optimal_vertex`); otherwise the solver runs as usual.
    The certificate tolerance is tight enough that reuse effectively only
    fires on bit-for-bit repeated worker LPs, so warm-started and cold
    solves produce identical policies.

    Returns the assembled ``(M, M)`` policy, or ``None`` if any worker's LP
    is infeasible (non-neighbor entries are zero, honoring Eq. 12).
    """
    times = np.asarray(times, dtype=np.float64)
    indicator = np.asarray(indicator, dtype=np.float64)
    m = times.shape[0]
    if t_bar <= 0:
        raise ValueError(f"t_bar must be positive, got {t_bar}")
    policy = np.zeros((m, m))
    for i in range(m):
        neighbors = np.flatnonzero(indicator[i] > 0)
        if neighbors.size == 0:
            return None  # isolated worker: no feasible communication at all
        floors = alpha * rho * (indicator[i, neighbors] + indicator[neighbors, i])
        floors = floors * (1.0 + _STRICT_MARGIN)
        # Variables: [p_ii, p_im for m in neighbors]
        num_vars = 1 + neighbors.size
        cost = np.zeros(num_vars)
        cost[0] = 1.0  # minimize p_ii
        # Tie-break among p_ii-optimal vertices: prefer fast links. The
        # quadratic-in-t weights are scaled so their total contribution
        # stays far below 1 (one unit of the primary objective).
        t_max = float(times[i, neighbors].max())
        if t_max > 0:
            cost[1:] = 1e-3 * (times[i, neighbors] / t_max) ** 2
        a_eq = np.zeros((2, num_vars))
        a_eq[0, 1:] = times[i, neighbors]  # Eq. (10)
        a_eq[1, :] = 1.0  # Eq. (13)
        b_eq = np.array([m * t_bar, 1.0])
        lower = np.concatenate(([0.0], floors))
        upper = np.ones(num_vars)
        if warm_start is not None:
            previous = np.concatenate(
                ([warm_start[i, i]], warm_start[i, neighbors])
            )
            if _certified_optimal_vertex(previous, cost, a_eq, b_eq, lower, upper):
                # The reused row is a previous solve's *renormalized* output;
                # it passes through untouched (no second renormalization), so
                # a warm-started solve of a bit-identical worker LP returns
                # bit-identical rows.
                policy[i, i] = previous[0]
                policy[i, neighbors] = previous[1:]
                continue
        bounds = list(zip(lower.tolist(), upper.tolist()))
        solution = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
        if not solution.success:
            return None
        # Clean tiny negative round-off and renormalize the row exactly.
        row = np.clip(solution.x, 0.0, None)
        row /= row.sum()
        policy[i, i] = row[0]
        policy[i, neighbors] = row[1:]
    return policy


def generate_policy(
    times: np.ndarray,
    indicator: np.ndarray,
    alpha: float,
    outer_rounds: int = 10,
    inner_rounds: int = 10,
    epsilon: float = 1e-2,
    warm_start: np.ndarray | None = None,
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
        warm_start: optional previous policy (same graph signature) handed
            to every grid point's :func:`solve_policy_lp`; certified-optimal
            vertices are reused without invoking the solver.

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
            policy = solve_policy_lp(
                times, indicator, alpha, rho, t_bar, warm_start=warm_start
            )
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

    Misses run :func:`generate_policy` on the *quantized* matrix, warm
    started from the previous result for the same signature, so cached and
    freshly solved policies are identical by construction for equal keys.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self.stats = PolicyCacheStats()
        self._entries: OrderedDict[bytes, PolicyResult | None] = OrderedDict()
        # Warm-start sources: the most recent result per graph signature.
        # LRU-bounded like the result entries -- under combined churn and
        # edge flips a long run can see many distinct (active-subset, live
        # edge-set) signatures, and an unbounded map would outlive the
        # max_entries budget it is supposed to respect.
        self._last_by_signature: OrderedDict[bytes, PolicyResult] = OrderedDict()

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
        warm = self._last_by_signature.get(signature)
        self.stats.cold_solves += 1
        try:
            result = generate_policy(
                quantized,
                indicator,
                alpha,
                outer_rounds=outer_rounds,
                inner_rounds=inner_rounds,
                epsilon=epsilon,
                warm_start=warm.policy if warm is not None else None,
            )
        except PolicyGenerationError:
            self._store(key, None)
            raise
        result.policy.setflags(write=False)  # shared across cache hits
        self._store(key, result)
        self._last_by_signature[signature] = result
        self._last_by_signature.move_to_end(signature)
        while len(self._last_by_signature) > self.max_entries:
            self._last_by_signature.popitem(last=False)
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

"""Algorithm 3: communication policy generation.

Given the measured iteration-time matrix ``T = [t_im]`` this module solves
the paper's optimization problem (Eq. 8-13): find neighbor-selection
probabilities ``P`` minimizing total convergence time ``k * t``, where the
iteration count ``k`` is controlled by ``lambda_2(Y_P)`` and the mean step
time ``t`` by which links the policy favors.

The grid of Algorithm 3 is searched as written:

- ``K`` values of the consensus weight
  ``rho in (L_rho, U_rho] = (0, 0.5/alpha]``;
- for each, ``R`` values of the global mean iteration time
  ``t in [L, U]`` (Appendix A intervals, Eq. 25-28);
- for each ``(rho, t)`` an LP (Eq. 14) minimizing ``sum_i p_ii`` subject to
  the feasibility constraints Eq. (10)-(13). Because neither the objective
  nor any constraint couples rows of ``P``, the LP decomposes into one small
  LP per worker. Each has two equality rows and box bounds, so its optimum
  is read off a convex envelope (:func:`solve_policy_lp`) -- no solver runs.

but not point by point. One private kernel (``_search``) lays out every
``(problem, rho, t)`` point of a stack of same-size problems -- one graph
for :func:`generate_policy`, every equally sized ego subgraph of a monitor
tick for :func:`generate_policies` -- and takes all of them through the
closed-form LP, the Eq. (22) mixing matrix and ``eigvalsh`` in a fixed
number of numpy calls; each problem keeps its first strict minimum of the
predicted convergence time in grid order. The scalar entry points
(:func:`solve_policy_lp`, :func:`~repro.core.mixing.expected_mixing_matrix`)
are stacks of one over the same code, and every result is bit-identical to
a point-by-point search (``tests/conftest.py::reference_policy_search``).

A feasible policy forces every worker's mean iteration time to ``M * t``,
hence uniform global-step probabilities ``p_i = 1/M`` (Lemma 1), under
which ``Y_P`` is doubly stochastic and ``lambda = lambda_2 < 1`` (Theorem 3).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.mixing import _mixing_stack

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
    "generate_policies",
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
    if t_bar <= 0:
        raise ValueError(f"t_bar must be positive, got {t_bar}")
    if not (indicator > 0).any(axis=1).all():
        return None  # isolated worker: no feasible communication at all
    policy, feasible = _lp_stack(
        times[None],
        indicator[None],
        alpha,
        np.array([rho], dtype=np.float64),
        np.array([t_bar], dtype=np.float64),
    )
    return policy[0] if feasible[0] else None


def _lp_stack(
    times: np.ndarray,
    indicator: np.ndarray,
    alpha: float,
    rho: np.ndarray,
    t_bar: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`solve_policy_lp`'s closed form at ``G`` points at once.

    ``times`` and ``indicator`` are C-ordered ``(G, M, M)`` stacks in which
    every worker has a neighbor; ``rho`` and ``t_bar`` hold one value per
    point. Returns the ``(G, M, M)`` policies and the ``(G,)`` feasibility
    mask; an infeasible point's policy is meaningless.
    """
    m = times.shape[-1]
    neighbors = indicator > 0
    times = np.where(neighbors, times, 0.0)
    floor = (alpha * rho * (1.0 + _STRICT_MARGIN))[:, None, None]
    policy = np.where(neighbors, floor * (indicator + np.swapaxes(indicator, 1, 2)), 0.0)
    budget = (m * t_bar)[:, None, None]
    mass = 1.0 - policy.sum(axis=2, keepdims=True)
    time_left = budget - (times * policy).sum(axis=2, keepdims=True)
    slowest = times.max(axis=2, keepdims=True)
    slack = _FEASIBILITY_TOL * budget
    feasible = ~(
        (mass.min(axis=(1, 2)) < -_FEASIBILITY_TOL)
        | (time_left.min(axis=(1, 2)) < -slack[:, 0, 0])
    )
    mass = np.maximum(mass, 0.0)
    capacity = mass * slowest
    feasible &= ~np.any(time_left > capacity + slack, axis=(1, 2))
    time_left = np.clip(time_left, 0.0, capacity)
    tau = np.divide(time_left, mass, out=np.zeros_like(mass), where=mass > 0)
    # The envelope vertices bracketing tau; time 0 is p_ii's vertex.
    below = neighbors & (times <= tau)
    t_low = np.where(below, times, 0.0).max(axis=2, keepdims=True)
    t_high = np.where(neighbors & ~below, times, np.inf).min(axis=2, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        on_high = np.clip((time_left - mass * t_low) / (t_high - t_low), 0.0, mass)
    on_low = mass - on_high
    at_low = below & (times == t_low)
    at_high = times == t_high
    shared_low = at_low.sum(axis=2, keepdims=True)
    shared_high = at_high.sum(axis=2, keepdims=True)
    policy += np.where(at_low, on_low / np.maximum(shared_low, 1), 0.0)
    policy += np.where(at_high, on_high / np.maximum(shared_high, 1), 0.0)
    workers = np.arange(m)
    policy[:, workers, workers] = np.where(shared_low == 0, on_low, 0.0)[:, :, 0]
    return policy, feasible


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
    (result,) = generate_policies(
        [times], [indicator], alpha, outer_rounds, inner_rounds, epsilon
    )
    if result is None:
        raise _no_feasible_policy(alpha, outer_rounds, inner_rounds)
    return result


def generate_policies(
    times: list[np.ndarray],
    indicators: list[np.ndarray],
    alpha: float,
    outer_rounds: int = 10,
    inner_rounds: int = 10,
    epsilon: float = 1e-2,
) -> list[PolicyResult | None]:
    """:func:`generate_policy` for many problems, ``None`` where infeasible.

    Problems of one size are searched together, one kernel call per size;
    each result is bit-identical to :func:`generate_policy`'s on its own.
    """
    if outer_rounds < 1 or inner_rounds < 1:
        raise ValueError("outer_rounds and inner_rounds must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    problems = [
        (np.asarray(t, dtype=np.float64), np.asarray(d, dtype=np.float64))
        for t, d in zip(times, indicators, strict=True)
    ]
    by_size: dict[int, list[int]] = {}
    for position, (problem_times, problem_indicator) in enumerate(problems):
        shape = problem_times.shape
        if shape != problem_indicator.shape or len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("times and indicator must be matching square matrices")
        by_size.setdefault(shape[0], []).append(position)
    rho_interval(alpha)
    results: list[PolicyResult | None] = [None] * len(problems)
    for positions in by_size.values():
        stacked_times = np.stack([problems[p][0] for p in positions])
        stacked_indicator = np.stack([problems[p][1] for p in positions])
        neighbors = stacked_indicator > 0
        if np.any(neighbors & ~(stacked_times > 0)):
            raise ValueError("all neighbor iteration times must be positive")
        if np.any(stacked_times < 0):
            raise ValueError("iteration times must be non-negative")
        if not neighbors.any(axis=2).all():
            raise ValueError(
                "every worker needs at least one neighbor with positive time"
            )
        found = _search(
            stacked_times, stacked_indicator, alpha,
            outer_rounds, inner_rounds, epsilon,
        )
        for position, result in zip(positions, found):
            results[position] = result
    return results


def _no_feasible_policy(
    alpha: float, outer_rounds: int, inner_rounds: int
) -> PolicyGenerationError:
    return PolicyGenerationError(
        f"no feasible policy: alpha={alpha}, grid {outer_rounds}x{inner_rounds} "
        "exhausted (learning rate may be too large for this topology)"
    )


# Grid points per kernel step are capped at this many policy entries, so a
# large graph's grid never materializes as one huge stack (2^17 float64 = 1 MB
# per temporary).
_CHUNK_ENTRIES = 1 << 17


def _search(
    times: np.ndarray,
    indicator: np.ndarray,
    alpha: float,
    outer_rounds: int,
    inner_rounds: int,
    epsilon: float,
) -> list[PolicyResult | None]:
    """Algorithm 3 over a ``(B, M, M)`` stack of validated problems.

    Every ``(problem, rho, t_bar)`` grid point goes through the same three
    steps at once -- the Eq. (14) LP (:func:`_lp_stack`), the Eq. (22)
    mixing matrix and one stacked ``eigvalsh`` -- and each problem keeps its
    first strict minimum of the predicted convergence time in grid order.
    """
    count, m, _ = times.shape
    lower_rho, upper_rho = rho_interval(alpha)
    # Tighten U_rho by the L <= U condition of the inner interval: the
    # minimum-probability floors force every worker to spend time on its
    # slow links, so L(rho) = rho * max_i (alpha/M) sum_m t_im (d_im + d_mi)
    # must stay below U = min_i max_m t_im d_im / M. Under extreme slowdowns
    # (the paper's 100x) this cap is far below 0.5/alpha, and a uniform grid
    # over the uncapped interval would never land in the feasible band.
    row_cost = np.sum(times * (indicator + np.swapaxes(indicator, 1, 2)), axis=2)
    floor_cost = np.max(alpha / m * row_cost, axis=1)
    upper_t = np.min(np.max(times * indicator, axis=2) / m, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = upper_t / floor_cost
    capped_rho = np.where((floor_cost > 0) & (cap < upper_rho), cap, upper_rho)
    delta_rho = (capped_rho - lower_rho) / outer_rounds
    rho = lower_rho + np.arange(1, outer_rounds + 1) * delta_rho[:, None]
    # The inner interval [L, U] of every rho (Eq. 26, 28; see t_interval).
    lower_t = np.max((alpha * rho / m)[:, :, None] * row_cost[:, None, :], axis=2)
    delta_t = (upper_t[:, None] - lower_t) / inner_rounds
    t_bar = lower_t[:, :, None] + np.arange(1, inner_rounds + 1) * delta_t[:, :, None]
    # Grid points in grid order; a rho with L > U contributes none.
    problem, k = np.nonzero(~(lower_t > upper_t[:, None]))
    problem = np.repeat(problem, inner_rounds)
    k = np.repeat(k, inner_rounds)
    r = np.tile(np.arange(inner_rounds), k.size // inner_rounds)
    point_rho = rho[problem, k]
    point_t = t_bar[problem, k, r]
    # A scalar power per rho value, as the mixing matrix needs it bit for bit.
    alpha_rho_sq = np.array([(alpha * x) ** 2 for x in rho.ravel().tolist()])
    point_sq = alpha_rho_sq.reshape(rho.shape)[problem, k]

    worker_probs = np.full(m, 1.0 / m)
    lambda2 = np.zeros(problem.size)
    usable = np.zeros(problem.size, dtype=bool)
    step = max(1, _CHUNK_ENTRIES // (m * m))
    for start in range(0, problem.size, step):
        chunk = slice(start, start + step)
        chunk_indicator = indicator[problem[chunk]]
        policy, feasible = _lp_stack(
            times[problem[chunk]], chunk_indicator, alpha,
            point_rho[chunk], point_t[chunk],
        )
        at = np.flatnonzero(feasible) + start
        mixing = _mixing_stack(
            policy[feasible], chunk_indicator[feasible], alpha,
            point_rho[at], point_sq[at], worker_probs,
        )
        lambda2[at] = np.linalg.eigvalsh(mixing)[:, -2]
        usable[at] = True
    usable &= (0.0 < lambda2) & (lambda2 < 1.0)
    predicted = np.full(problem.size, np.inf)
    predicted[usable] = point_t[usable] * (
        np.log(epsilon) / np.log(lambda2[usable])
    )
    # Each problem's first point in (problem, predicted, unusable-last, grid)
    # order: its first strict minimum, as a sequential `<` scan would keep.
    order = np.lexsort((~usable, predicted, problem))
    first = np.ones(order.size, dtype=bool)
    first[1:] = problem[order[1:]] != problem[order[:-1]]
    best = order[first]
    best = best[usable[best]]
    # Only the winners' policies are kept, so they are solved once more.
    winners, _ = _lp_stack(
        times[problem[best]], indicator[problem[best]], alpha,
        point_rho[best], point_t[best],
    )
    evaluated = np.bincount(problem[usable], minlength=count)
    grid = outer_rounds * inner_rounds
    results: list[PolicyResult | None] = [None] * count
    for winner, point in zip(winners, best.tolist()):
        b = int(problem[point])
        results[b] = PolicyResult(
            policy=winner.copy(),
            rho=float(point_rho[point]),
            t_bar=float(point_t[point]),
            lambda2=float(lambda2[point]),
            predicted_convergence_time=float(predicted[point]),
            epsilon=epsilon,
            candidates_evaluated=int(evaluated[b]),
            candidates_infeasible=grid - int(evaluated[b]),
        )
    return results


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
        return self._lookup(
            key,
            lambda: generate_policy(
                quantized,
                indicator,
                alpha,
                outer_rounds=outer_rounds,
                inner_rounds=inner_rounds,
                epsilon=epsilon,
            ),
        )

    def generate_many(
        self,
        times: list[np.ndarray],
        indicators: list[np.ndarray],
        alpha: float,
        outer_rounds: int = 10,
        inner_rounds: int = 10,
        epsilon: float = 1e-2,
        signatures: list[bytes] | None = None,
    ) -> list[PolicyResult]:
        """:meth:`generate` for each problem in order, cold solves batched.

        Every key absent at the call is solved up front in one
        :func:`generate_policies` pass; the lookups then run in order exactly
        as that many :meth:`generate` calls would -- a key repeated in the
        list is a hit after its first cold solve, a key evicted midway is
        solved again, and the first infeasible problem raises with the same
        entries stored and the same counts.
        """
        indicators = [np.asarray(d, dtype=np.float64) for d in indicators]
        if signatures is None:
            signatures = [np.packbits(d > 0).tobytes() for d in indicators]
        quantized = [quantize_times(t) for t in times]
        keys = [
            self._key(signature, q, alpha, outer_rounds, inner_rounds, epsilon)
            for signature, q in zip(signatures, quantized, strict=True)
        ]
        cold: dict[bytes, int] = {}
        for position, key in enumerate(keys):
            if key not in self._entries:
                cold.setdefault(key, position)

        def solve_all(positions):
            return generate_policies(
                [quantized[p] for p in positions],
                [indicators[p] for p in positions],
                alpha,
                outer_rounds,
                inner_rounds,
                epsilon,
            )

        solved = dict(zip(cold, solve_all(list(cold.values()))))

        def solve(position: int) -> PolicyResult:
            key = keys[position]
            result = solved.pop(key) if key in solved else solve_all([position])[0]
            if result is None:
                raise _no_feasible_policy(alpha, outer_rounds, inner_rounds)
            return result

        return [
            self._lookup(key, lambda p=position: solve(p))
            for position, key in enumerate(keys)
        ]

    def _lookup(self, key: bytes, solve) -> PolicyResult:
        """The entry under ``key``, else ``solve()`` stored under it."""
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
            result = solve()
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

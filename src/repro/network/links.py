"""Time-varying link-speed models.

The paper's testbed emulates heterogeneity by throttling links and *rotating
the throttled link every 5 minutes* ("we randomly slow down one of the
communication links among nodes by 2x to 100x ... we further change the slow
link every 5 minutes", Section V-A). :class:`DynamicSlowdownLinks` implements
exactly that process, deterministically: the slowed link and factor for
interval ``n`` are a pure function of ``(seed, n)``, so any query order gives
the same network history.

All models answer two point-in-time questions:

- ``bandwidth(i, j, time)`` -> bytes/second,
- ``latency(i, j, time)`` -> seconds.

Every model must be a *pure function of time*: querying it may never advance
hidden randomness, so any query order reproduces the same network history
(``tests/network/test_link_invariants.py`` enforces this for every subclass).

Beyond the paper's rotating slowdown, :class:`TraceLinks` replays arbitrary
piecewise-constant bandwidth traces. Traces come from three sources:

- explicit segments (tests, scripted examples);
- files, via :meth:`TraceLinks.from_json` / :meth:`TraceLinks.from_csv`
  (formats documented on those methods);
- the synthetic generators :func:`diurnal_trace` (tenant load following a
  smooth daily cycle, per-pair phase offsets), :func:`random_walk_trace`
  (log-space multiplicative drift per link), and
  :func:`burst_congestion_trace` (links intermittently crushed by bursty
  cross-traffic) -- all deterministic in their seed because every segment is
  precomputed at construction time.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Sequence

import numpy as np

from repro.network.cluster import ClusterSpec, gbps_to_bytes_per_s

__all__ = [
    "LinkSpeedModel",
    "StaticLinks",
    "ClusterLinks",
    "DynamicSlowdownLinks",
    "TraceLinks",
    "multi_cloud_links",
    "diurnal_trace",
    "random_walk_trace",
    "burst_congestion_trace",
]


class LinkSpeedModel:
    """Interface: pointwise link speed queries over simulated time.

    :meth:`bandwidth` and :meth:`latency` must reject an out-of-range worker
    with ``ValueError`` themselves: wrappers (:class:`DynamicSlowdownLinks`)
    delegate the check to the model they wrap.
    """

    @property
    def num_workers(self) -> int:
        raise NotImplementedError

    def bandwidth(self, a: int, b: int, time: float) -> float:
        """Bytes/second between workers ``a`` and ``b`` at ``time``."""
        raise NotImplementedError

    def latency(self, a: int, b: int, time: float) -> float:
        """One-way propagation latency in seconds at ``time``."""
        raise NotImplementedError

    def bandwidth_row(self, a: int, time: float) -> np.ndarray:
        """Bandwidths from worker ``a`` to every worker at ``time``.

        Returns a fresh length-``M`` float array with ``row[a] = +inf``
        (matching the :meth:`bandwidth_matrix` diagonal). The base
        implementation assembles the row from point queries; models with
        cheap row structure (static matrices, placement-based clusters,
        trace segments) override it so per-worker consumers -- transfer-cost
        evaluation, monitor probing -- never materialize the O(N²) matrix.
        """
        m = self.num_workers
        if not 0 <= a < m:
            raise ValueError(f"worker {a} out of range for M={m}")
        out = np.fromiter(
            (
                np.inf if b == a else self.bandwidth(a, b, time)
                for b in range(m)
            ),
            dtype=np.float64,
            count=m,
        )
        return out

    def bandwidth_matrix(self, time: float) -> np.ndarray:
        """Full ``(M, M)`` bandwidth snapshot (diagonal +inf).

        Stacked from :meth:`bandwidth_row`, so models with vectorized rows
        build the matrix row-wise; prefer the row query whenever a single
        worker's links suffice.
        """
        m = self.num_workers
        return np.stack([self.bandwidth_row(a, time) for a in range(m)])

    def _check_pair(self, a: int, b: int) -> None:
        m = self.num_workers
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"worker pair ({a}, {b}) out of range for M={m}")


class StaticLinks(LinkSpeedModel):
    """Fixed bandwidth/latency matrices (the homogeneous vswitch setting)."""

    def __init__(self, bandwidth: np.ndarray, latency: np.ndarray):
        bandwidth = np.asarray(bandwidth, dtype=np.float64)
        latency = np.asarray(latency, dtype=np.float64)
        if bandwidth.ndim != 2 or bandwidth.shape[0] != bandwidth.shape[1]:
            raise ValueError(f"bandwidth must be square, got {bandwidth.shape}")
        if latency.shape != bandwidth.shape:
            raise ValueError("latency and bandwidth shapes must match")
        off_diag = ~np.eye(bandwidth.shape[0], dtype=bool)
        if not np.all(bandwidth[off_diag] > 0):
            raise ValueError("off-diagonal bandwidths must be positive")
        _check_latency(latency)
        self._bandwidth = bandwidth
        self._latency = latency

    @property
    def num_workers(self) -> int:
        return self._bandwidth.shape[0]

    def bandwidth(self, a: int, b: int, time: float) -> float:
        self._check_pair(a, b)
        return float(self._bandwidth[a, b])

    def bandwidth_row(self, a: int, time: float) -> np.ndarray:
        self._check_pair(a, a)
        row = self._bandwidth[a].copy()
        row[a] = np.inf
        return row

    def latency(self, a: int, b: int, time: float) -> float:
        self._check_pair(a, b)
        return float(self._latency[a, b])


class ClusterLinks(LinkSpeedModel):
    """Placement-implied links with O(N) state (no dense matrices).

    Answers exactly the same queries as a dense :class:`StaticLinks` over
    ``cluster.bandwidth_matrix()`` and ``cluster.latency_matrix()`` --
    intra-server pairs get the cluster's intra bandwidth/latency,
    cross-server pairs the inter values, computed from the same
    :func:`gbps_to_bytes_per_s` conversion so every float is bit-identical
    -- but stores only the per-worker placement vector. This is what lets
    the heterogeneous scenario scale to thousands of workers without two
    O(N²) matrices per cell.
    """

    def __init__(self, cluster: ClusterSpec):
        self.cluster = cluster
        self._placement = cluster.placement()
        # The same placement as Python ints, for the scalar queries.
        self._servers = self._placement.tolist()
        self._intra_bandwidth = gbps_to_bytes_per_s(cluster.intra_gbps)
        self._inter_bandwidth = gbps_to_bytes_per_s(cluster.inter_gbps)
        self._intra_latency = float(cluster.intra_latency_s)
        self._inter_latency = float(cluster.inter_latency_s)

    @property
    def num_workers(self) -> int:
        return int(self._placement.size)

    def bandwidth(self, a: int, b: int, time: float) -> float:
        self._check_pair(a, b)
        if a == b:
            return float(np.inf)
        if self._servers[a] == self._servers[b]:
            return self._intra_bandwidth
        return self._inter_bandwidth

    def bandwidth_row(self, a: int, time: float) -> np.ndarray:
        self._check_pair(a, a)
        row = np.where(
            self._placement == self._placement[a],
            self._intra_bandwidth,
            self._inter_bandwidth,
        ).astype(np.float64)
        row[a] = np.inf
        return row

    def latency(self, a: int, b: int, time: float) -> float:
        self._check_pair(a, b)
        if a == b:
            return 0.0
        if self._servers[a] == self._servers[b]:
            return self._intra_latency
        return self._inter_latency


class DynamicSlowdownLinks(LinkSpeedModel):
    """Paper Section V-A dynamics: one rotating slowed link.

    In every interval of ``period_s`` seconds, one undirected link (chosen
    uniformly) is slowed by a factor drawn log-uniformly from
    ``slowdown_range`` (default 2x-100x, the paper's range). The choice for
    interval ``n`` is derived from ``(seed, n)`` alone, so the model is a
    deterministic function of time.

    Args:
        base: the underlying static model being perturbed.
        period_s: rotation period (paper: 300 s).
        slowdown_range: inclusive (low, high) multiplicative slowdown.
        seed: randomness root.
        num_slow_links: how many links are simultaneously slowed (paper: 1).
    """

    def __init__(
        self,
        base: LinkSpeedModel,
        period_s: float = 300.0,
        slowdown_range: tuple[float, float] = (2.0, 100.0),
        seed: int = 0,
        num_slow_links: int = 1,
    ):
        low, high = slowdown_range
        if period_s <= 0:
            raise ValueError(f"period_s must be positive, got {period_s}")
        if not 1.0 <= low <= high:
            raise ValueError(f"slowdown_range must satisfy 1 <= low <= high, got {slowdown_range}")
        if num_slow_links < 1:
            raise ValueError("num_slow_links must be >= 1")
        self._base = base
        self.period_s = float(period_s)
        self.slowdown_range = (float(low), float(high))
        self.seed = int(seed)
        self.num_slow_links = int(num_slow_links)
        m = base.num_workers
        # Undirected pairs are indexed implicitly in lexicographic (a, b)
        # order -- the order the historical O(N²) pair list enumerated them,
        # so the seeded choice below picks the identical link per interval.
        # Only the O(N) per-row offsets are stored.
        self._num_pairs = m * (m - 1) // 2
        self._row_starts = np.concatenate(
            [[0], np.cumsum(np.arange(m - 1, 0, -1))]
        )
        if num_slow_links > self._num_pairs:
            raise ValueError("more slow links requested than links exist")
        # (interval, slowed links) of the last interval asked about. The
        # dict is a pure function of (seed, interval), so remembering it
        # changes no answer -- only how often the Generator is rebuilt.
        self._last_interval: tuple[int, dict[tuple[int, int], float]] = (-1, {})

    def _pair_from_index(self, index: int) -> tuple[int, int]:
        """Lexicographic pair index -> undirected pair ``(a, b)``, a < b."""
        a = int(np.searchsorted(self._row_starts, index, side="right") - 1)
        b = a + 1 + (index - int(self._row_starts[a]))
        return a, b

    @property
    def num_workers(self) -> int:
        return self._base.num_workers

    def _interval(self, time: float) -> int:
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        return int(time // self.period_s)

    def _slowed_at(self, time: float) -> dict[tuple[int, int], float]:
        interval = self._interval(time)
        last = self._last_interval
        if last[0] != interval:
            rng = np.random.default_rng([self.seed, interval])
            chosen = rng.choice(self._num_pairs, size=self.num_slow_links, replace=False)
            low, high = self.slowdown_range
            # Log-uniform: 2x and 100x slowdowns are both plausible tenant effects.
            factors = np.exp(rng.uniform(np.log(low), np.log(high), size=self.num_slow_links))
            slowed = {
                self._pair_from_index(int(c)): float(f)
                for c, f in zip(chosen, factors)
            }
            # repro-lint: allow[RPL010] -- memo keyed by its own input: the
            # stored dict is the pure function of (seed, interval) a fresh
            # query would rebuild, so no query order can shift an answer
            # (tests/network/test_links.py asks 3, 0, 3 and compares).
            last = self._last_interval = (interval, slowed)
        return last[1]

    def slowed_links(self, time: float) -> dict[tuple[int, int], float]:
        """The slowed undirected links and their factors active at ``time``."""
        return dict(self._slowed_at(time))

    def bandwidth(self, a: int, b: int, time: float) -> float:
        base = self._base.bandwidth(a, b, time)  # validates the pair
        if a == b:
            return base
        factor = self._slowed_at(time).get((a, b) if a < b else (b, a))
        return base / factor if factor is not None else base

    def bandwidth_row(self, a: int, time: float) -> np.ndarray:
        row = self._base.bandwidth_row(a, time)
        for (i, j), factor in self._slowed_at(time).items():
            if i == a:
                row[j] /= factor
            elif j == a:
                row[i] /= factor
        return row

    def latency(self, a: int, b: int, time: float) -> float:
        return self._base.latency(a, b, time)


class TraceLinks(LinkSpeedModel):
    """Piecewise-constant bandwidth trace: explicit ``(start_time, matrix)``.

    Used by tests and the dynamic-network example to script exact link-speed
    changes (e.g. the Fig. 2 scenario where the fast link at T1 turns slow
    at T2), and as the replay substrate for file-loaded and synthetic traces
    (:meth:`from_json`, :meth:`from_csv`, :func:`diurnal_trace`,
    :func:`random_walk_trace`, :func:`burst_congestion_trace`).
    """

    def __init__(
        self,
        segments: Sequence[tuple[float, np.ndarray]],
        latency: np.ndarray,
    ):
        if not segments:
            raise ValueError("need at least one trace segment")
        starts = [s for s, _ in segments]
        if starts[0] != 0.0:
            raise ValueError("first segment must start at time 0")
        if not np.all(np.isfinite(starts)):
            raise ValueError(f"segment start times must be finite, got {starts}")
        if any(b <= a for a, b in zip(starts[:-1], starts[1:])):
            raise ValueError("segment start times must be strictly increasing")
        matrices = [np.asarray(m, dtype=np.float64) for _, m in segments]
        shape = matrices[0].shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"trace matrices must be square, got {shape}")
        if any(m.shape != shape for m in matrices):
            raise ValueError("all trace matrices must share a shape")
        off_diag = ~np.eye(shape[0], dtype=bool)
        for start, matrix in zip(starts, matrices):
            # "not > 0" rather than "<= 0", so a NaN bandwidth fails here too.
            if not np.all(matrix[off_diag] > 0):
                raise ValueError(
                    f"segment at t={start}: off-diagonal bandwidths must be positive"
                )
            # Links are undirected throughout (Section II-A); an asymmetric
            # trace would make transfer times depend on direction while
            # subgraph selection reads the matrix, silently diverging.
            if not np.array_equal(
                np.where(off_diag, matrix, 0.0),
                np.where(off_diag, matrix.T, 0.0),
            ):
                raise ValueError(
                    f"segment at t={start}: bandwidth matrix must be symmetric"
                )
        latency = np.asarray(latency, dtype=np.float64)
        if latency.shape != shape:
            raise ValueError("latency shape must match trace matrices")
        _check_latency(latency)
        self._starts = np.asarray(starts)
        self._matrices = matrices
        self._latency = latency

    @classmethod
    def from_json(cls, source) -> "TraceLinks":
        """Load a trace from a JSON file path, file object, or parsed dict.

        Schema::

            {
              "num_workers": 4,               // required when scalars are used
              "latency": 0.001,               // scalar or MxM matrix, seconds
              "segments": [
                {"start": 0.0,   "bandwidth": 1.25e8},   // scalar or MxM,
                {"start": 300.0, "bandwidth": [[...]]}   // bytes/second
              ]
            }

        Scalar ``bandwidth``/``latency`` values broadcast to every
        off-diagonal entry. Segment starts must be finite, begin at 0 and
        strictly increase.
        """
        if isinstance(source, dict):
            payload = source
        elif hasattr(source, "read"):
            payload = json.load(source)
        else:
            with open(source) as handle:
                payload = json.load(handle)
        if "segments" not in payload or not payload["segments"]:
            raise ValueError("trace JSON needs a non-empty 'segments' list")
        m = payload.get("num_workers")
        if m is None:
            for value in [payload.get("latency"), *(
                s.get("bandwidth") for s in payload["segments"]
            )]:
                if isinstance(value, (list, tuple)):
                    m = len(value)
                    break
            else:
                raise ValueError(
                    "trace JSON with scalar entries needs 'num_workers'"
                )
        m = int(m)
        segments = []
        for entry in payload["segments"]:
            if "start" not in entry or "bandwidth" not in entry:
                raise ValueError("each segment needs 'start' and 'bandwidth'")
            segments.append(
                (float(entry["start"]),
                 _broadcast_matrix(entry["bandwidth"], m, "bandwidth", np.inf))
            )
        latency = _broadcast_matrix(payload.get("latency", 0.0), m, "latency", 0.0)
        return cls(segments, latency)

    @classmethod
    def from_csv(cls, source, num_workers: int | None = None,
                 latency: float | np.ndarray = 0.0) -> "TraceLinks":
        """Load a trace from long-format CSV: ``time,src,dst,bandwidth`` rows.

        Each row sets the (undirected) ``src <-> dst`` bandwidth in
        bytes/second from ``time`` onward; unlisted pairs carry their previous
        value forward (piecewise-constant replay). The ``time=0`` rows must
        cover every worker pair so the trace is total. A header row is
        detected and skipped automatically.

        Args:
            source: file path or open file object.
            num_workers: worker count; inferred from the largest index if
                omitted.
            latency: scalar seconds or an ``(M, M)`` matrix (CSV traces carry
                bandwidth only).
        """
        if hasattr(source, "read"):
            rows = list(csv.reader(source))
        else:
            with open(source, newline="") as handle:
                rows = list(csv.reader(handle))
        parsed: list[tuple[float, int, int, float]] = []
        for index, row in enumerate(rows):
            if not row or not "".join(row).strip():
                continue
            try:
                time, src, dst, bandwidth = (
                    float(row[0]), int(row[1]), int(row[2]), float(row[3])
                )
            except (ValueError, IndexError):
                if index == 0:  # header row
                    continue
                raise ValueError(f"malformed CSV trace row {index}: {row!r}")
            parsed.append((time, src, dst, bandwidth))
        if not parsed:
            raise ValueError("CSV trace contains no data rows")
        if num_workers is None:
            num_workers = max(max(s, d) for _, s, d, _ in parsed) + 1
        m = int(num_workers)
        by_start: dict[float, list[tuple[int, int, float]]] = {}
        for time, src, dst, bandwidth in parsed:
            if src == dst:
                raise ValueError(f"CSV trace row sets a self-link ({src}, {dst})")
            if not (0 <= src < m and 0 <= dst < m):
                raise ValueError(f"worker pair ({src}, {dst}) out of range for M={m}")
            by_start.setdefault(time, []).append((src, dst, bandwidth))
        starts = sorted(by_start)
        if starts[0] != 0.0:
            raise ValueError("CSV trace must start at time 0")
        current = np.full((m, m), np.nan)
        np.fill_diagonal(current, np.inf)
        segments = []
        for start in starts:
            current = current.copy()
            for src, dst, bandwidth in by_start[start]:
                current[src, dst] = current[dst, src] = bandwidth
            if start == 0.0 and np.any(np.isnan(current)):
                missing = np.argwhere(np.isnan(current))
                raise ValueError(
                    "CSV trace's time-0 rows must cover every pair; missing "
                    f"{[tuple(p) for p in missing[:4].tolist()]}..."
                )
            segments.append((start, current))
        latency_matrix = _broadcast_matrix(latency, m, "latency", 0.0)
        return cls(segments, latency_matrix)

    @property
    def num_workers(self) -> int:
        return self._latency.shape[0]

    def _segment(self, time: float) -> np.ndarray:
        if time < 0:
            raise ValueError(f"time must be >= 0, got {time}")
        idx = int(np.searchsorted(self._starts, time, side="right") - 1)
        return self._matrices[idx]

    def bandwidth(self, a: int, b: int, time: float) -> float:
        self._check_pair(a, b)
        if a == b:
            return np.inf
        return float(self._segment(time)[a, b])

    def bandwidth_row(self, a: int, time: float) -> np.ndarray:
        self._check_pair(a, a)
        row = self._segment(time)[a].copy()
        row[a] = np.inf
        return row

    def latency(self, a: int, b: int, time: float) -> float:
        self._check_pair(a, b)
        if a == b:
            return 0.0
        return float(self._latency[a, b])


def _check_latency(latency: np.ndarray) -> None:
    """Latencies become event delays, which must be finite and >= 0."""
    if not np.all(np.isfinite(latency) & (latency >= 0)):
        raise ValueError("latencies must be finite and non-negative")


def _broadcast_matrix(value, m: int, name: str, diagonal: float) -> np.ndarray:
    """Scalar -> full off-diagonal matrix; matrix -> validated copy."""
    if np.isscalar(value):
        matrix = np.full((m, m), float(value))
        np.fill_diagonal(matrix, diagonal)
        return matrix
    matrix = np.asarray(value, dtype=np.float64)
    if matrix.shape != (m, m):
        raise ValueError(f"{name} must be a scalar or ({m}, {m}) matrix, "
                         f"got shape {matrix.shape}")
    return matrix


# -- synthetic trace generators ------------------------------------------------
#
# Each generator precomputes every piecewise-constant segment at construction
# (ceil(duration_s / step_s) segments), so the returned TraceLinks is a pure
# function of time: queries never touch an RNG. All produce symmetric
# matrices with strictly positive bandwidths.


def _trace_grid(duration_s: float, step_s: float) -> np.ndarray:
    if duration_s <= 0 or step_s <= 0:
        raise ValueError("duration_s and step_s must be positive")
    return np.arange(0.0, duration_s, step_s)


def _pair_indices(m: int) -> list[tuple[int, int]]:
    if m < 2:
        raise ValueError("need at least 2 workers")
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def _segments_from_factors(
    starts: np.ndarray,
    pair_factors: np.ndarray,
    pairs: list[tuple[int, int]],
    m: int,
    base_bandwidth: float,
) -> list[tuple[float, np.ndarray]]:
    """Per-(segment, pair) multiplicative factors -> symmetric matrices."""
    if base_bandwidth <= 0:
        raise ValueError("base_bandwidth must be positive")
    segments = []
    for index, start in enumerate(starts):
        matrix = np.full((m, m), np.inf)
        for (a, b), factor in zip(pairs, pair_factors[index]):
            matrix[a, b] = matrix[b, a] = base_bandwidth * factor
        segments.append((float(start), matrix))
    return segments


def diurnal_trace(
    num_workers: int,
    duration_s: float = 3600.0,
    step_s: float = 60.0,
    base_bandwidth: float = gbps_to_bytes_per_s(1.0),
    amplitude: float = 0.6,
    period_s: float = 1800.0,
    latency_s: float = 0.001,
    seed: int = 0,
) -> TraceLinks:
    """Smooth daily-cycle congestion: per-pair sinusoidal bandwidth.

    Each undirected pair follows ``base * (1 + amplitude * sin(2 pi (t +
    phase) / period_s))`` sampled every ``step_s`` seconds, with the phase
    drawn once per pair from ``seed`` -- links peak and trough at different
    times, the way tenants' business-hour load does.
    """
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    starts = _trace_grid(duration_s, step_s)
    pairs = _pair_indices(num_workers)
    phases = np.random.default_rng([seed, 0xD1]).uniform(0.0, period_s, len(pairs))
    # (segments, pairs) factor grid in one vectorized evaluation.
    factors = 1.0 + amplitude * np.sin(
        2.0 * np.pi * (starts[:, None] + phases[None, :]) / period_s
    )
    segments = _segments_from_factors(starts, factors, pairs, num_workers, base_bandwidth)
    latency = _broadcast_matrix(latency_s, num_workers, "latency", 0.0)
    return TraceLinks(segments, latency)


def random_walk_trace(
    num_workers: int,
    duration_s: float = 3600.0,
    step_s: float = 60.0,
    base_bandwidth: float = gbps_to_bytes_per_s(1.0),
    sigma: float = 0.15,
    factor_range: tuple[float, float] = (0.05, 2.0),
    latency_s: float = 0.001,
    seed: int = 0,
) -> TraceLinks:
    """Log-space multiplicative random walk per link.

    Every ``step_s`` seconds each pair's bandwidth factor is multiplied by
    ``exp(N(0, sigma))`` and clipped into ``factor_range`` -- slow drift with
    occasional deep fades, the non-stationary regime where a one-shot
    measurement (SAPS-style) goes stale.
    """
    low, high = factor_range
    if not 0.0 < low <= 1.0 <= high:
        raise ValueError(f"factor_range must satisfy 0 < low <= 1 <= high, got {factor_range}")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    starts = _trace_grid(duration_s, step_s)
    pairs = _pair_indices(num_workers)
    rng = np.random.default_rng([seed, 0x8A1D])
    log_steps = rng.normal(0.0, sigma, size=(len(starts), len(pairs)))
    log_steps[0] = 0.0  # every link starts at the base bandwidth
    factors = np.exp(np.cumsum(log_steps, axis=0))
    factors = np.clip(factors, low, high)
    segments = _segments_from_factors(starts, factors, pairs, num_workers, base_bandwidth)
    latency = _broadcast_matrix(latency_s, num_workers, "latency", 0.0)
    return TraceLinks(segments, latency)


def burst_congestion_trace(
    num_workers: int,
    duration_s: float = 3600.0,
    step_s: float = 60.0,
    base_bandwidth: float = gbps_to_bytes_per_s(1.0),
    burst_probability: float = 0.08,
    burst_continue_probability: float = 0.5,
    burst_factor_range: tuple[float, float] = (5.0, 50.0),
    latency_s: float = 0.001,
    seed: int = 0,
) -> TraceLinks:
    """Bursty cross-traffic: links intermittently slowed by a large factor.

    Per step, an idle pair enters a burst with ``burst_probability``; a
    bursting pair stays in it with ``burst_continue_probability``. A burst
    divides bandwidth by a factor drawn log-uniformly from
    ``burst_factor_range`` at burst start (the paper's 2x-100x slowdowns are
    exactly this kind of tenant interference, but affecting several links at
    once here).
    """
    if not 0.0 <= burst_probability <= 1.0:
        raise ValueError("burst_probability must be in [0, 1]")
    if not 0.0 <= burst_continue_probability < 1.0:
        raise ValueError("burst_continue_probability must be in [0, 1)")
    low, high = burst_factor_range
    if not 1.0 <= low <= high:
        raise ValueError(f"burst_factor_range must satisfy 1 <= low <= high, got {burst_factor_range}")
    starts = _trace_grid(duration_s, step_s)
    pairs = _pair_indices(num_workers)
    rng = np.random.default_rng([seed, 0xB0B5])
    factors = np.ones((len(starts), len(pairs)))
    bursting = np.zeros(len(pairs), dtype=bool)
    current = np.ones(len(pairs))
    for index in range(len(starts)):
        transitions = rng.random(len(pairs))
        fresh_factors = np.exp(
            rng.uniform(np.log(low), np.log(high), size=len(pairs))
        )
        started = ~bursting & (transitions < burst_probability)
        continued = bursting & (transitions < burst_continue_probability)
        current = np.where(started, fresh_factors, current)
        bursting = started | continued
        factors[index] = np.where(bursting, 1.0 / current, 1.0)
    segments = _segments_from_factors(starts, factors, pairs, num_workers, base_bandwidth)
    latency = _broadcast_matrix(latency_s, num_workers, "latency", 0.0)
    return TraceLinks(segments, latency)


# Appendix G: six EC2 regions. Geographic groups determine WAN quality; the
# paper notes geographically-close regions can be ~12x faster than distant
# ones. Values are plausible WAN figures (bandwidth Gbps, one-way latency s)
# chosen to preserve that spread.
_REGIONS = ("us-west", "us-east", "ireland", "mumbai", "singapore", "tokyo")
_REGION_GROUP = {
    "us-west": "america",
    "us-east": "america",
    "ireland": "europe",
    "mumbai": "asia",
    "singapore": "asia",
    "tokyo": "asia",
}
_SAME_GROUP_GBPS = 0.6
_CROSS_GROUP_GBPS = 0.05
_SAME_GROUP_LATENCY = 0.04
_CROSS_GROUP_LATENCY = 0.15


def multi_cloud_links(regions: Sequence[str] = _REGIONS) -> StaticLinks:
    """WAN link model across cloud regions (Appendix G substitute).

    Same-continent pairs get ~12x the bandwidth of cross-continent pairs,
    matching the paper's observation about geographic distance. One worker
    per region.
    """
    unknown = [r for r in regions if r not in _REGION_GROUP]
    if unknown:
        raise ValueError(f"unknown regions {unknown}; valid: {sorted(_REGION_GROUP)}")
    if len(regions) < 2:
        raise ValueError("need at least 2 regions")
    m = len(regions)
    bandwidth = np.full((m, m), np.inf)
    latency = np.zeros((m, m))
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            same = _REGION_GROUP[regions[a]] == _REGION_GROUP[regions[b]]
            gbps = _SAME_GROUP_GBPS if same else _CROSS_GROUP_GBPS
            bandwidth[a, b] = gbps_to_bytes_per_s(gbps)
            latency[a, b] = _SAME_GROUP_LATENCY if same else _CROSS_GROUP_LATENCY
    return StaticLinks(bandwidth, latency)

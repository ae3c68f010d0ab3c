"""Scenario and workload builders mirroring Section V-A's experimental setup.

A :class:`Scenario` is the *network*: topology + link-speed model + an
optional churn schedule. A :class:`Workload` is the *learning problem*:
per-worker tasks (model replica + data shard + batch size), the held-out
test set, and the paper-scale cost profile. The harness combines one of
each with an algorithm name.

Beyond the direct builder functions, this module hosts the **scenario
catalog** :data:`SCENARIO_FAMILIES`, a literal table of :class:`ScenarioFamily`
entries -- builder plus typed parameter schema -- that
:func:`build_scenario` instantiates by name with string-coercible parameter
overrides. The catalog is what the sweep engine's per-cell
scenario-parameter grids and the CLI's ``--scenario`` / ``--scenario-param``
flags resolve against.

Scenario families (see each family's description for parameters):

- ``homogeneous`` -- Section V-A's single-server 10 Gbps virtual switch;
- ``heterogeneous`` -- Section V-A's multi-tenant cluster with the rotating
  2x-100x slowdown link;
- ``heterogeneous-static`` -- the same cluster with the slowdown frozen off;
- ``multi-cloud`` -- Appendix G's six-region WAN (fixed at 6 workers);
- ``trace-diurnal`` / ``trace-random-walk`` / ``trace-burst`` -- synthetic
  trace-driven link dynamics (:mod:`repro.network.links` generators);
- ``trace-file`` -- replay a JSON/CSV bandwidth trace from disk;
- ``churn`` -- the heterogeneous network plus scheduled worker
  departures/rejoins (:class:`repro.simulation.churn.ChurnSchedule`).

Every family additionally accepts the shared axes, which
:meth:`ScenarioFamily.build` applies to whatever the family's builder
returns and which no builder sees: the graph axis -- ``topology`` /
``edge_probability`` select the communication-graph family, and
``edge_failures`` / ``edge_downtime_s`` / ``edge_horizon_s`` promote the
graph to a time-varying :class:`~repro.graph.topology.DynamicTopology`
with a seeded random edge fail/repair schedule (gossip algorithms only) --
and the compression axis: ``compression`` / ``compression_param`` attach
a :class:`~repro.network.compression.CompressionOp` shrinking every model
transfer (see :mod:`repro.network.compression`). A built scenario is named
``{family}-{num_workers}w``; :meth:`~repro.experiments.sweeps.ScenarioSpec.label`
spells its parameters too.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.algorithms.base import WorkerTask
from repro.datasets.partition import (
    partition_drop_labels,
    partition_segments,
    partition_uniform,
)
from repro.datasets.synthetic import load_dataset
from repro.graph.topology import (
    RANDOMIZED_TOPOLOGY_KINDS,
    TOPOLOGY_KINDS,
    DynamicTopology,
    EdgeSchedule,
    Topology,
    make_topology,
)
from repro.ml.data import BatchSampler, Dataset, train_test_split
from repro.ml.models import build_model
from repro.ml.problems import make_consensus_quadratics
from repro.network.cluster import ClusterSpec, gbps_to_bytes_per_s
from repro.network.compression import (
    CompressionOp,
    compression_op_names,
    make_compression_op,
)
from repro.network.costmodel import ModelCostProfile, get_cost_profile
from repro.network.links import (
    ClusterLinks,
    DynamicSlowdownLinks,
    LinkSpeedModel,
    TraceLinks,
    burst_congestion_trace,
    diurnal_trace,
    multi_cloud_links,
    random_walk_trace,
)
from repro.simulation.churn import ChurnSchedule

__all__ = [
    "Scenario",
    "heterogeneous_scenario",
    "homogeneous_scenario",
    "multi_cloud_scenario",
    "ScenarioParam",
    "ScenarioFamily",
    "SCENARIO_FAMILIES",
    "scenario_names",
    "get_scenario_family",
    "build_scenario",
    "Workload",
    "check_partition",
    "make_workload",
    "make_quadratic_workload",
]


@dataclass(frozen=True)
class Scenario:
    """A network to train over (plus optional worker churn/compression).

    ``compression`` is ``None`` unless the shared axis attached a *lossy*
    op -- the ``none`` op builds the identical scenario as omitting the
    axis, so spelling it out can never change a cache key or a result.
    """

    name: str
    topology: Topology
    links: LinkSpeedModel
    churn: ChurnSchedule | None = None
    compression: CompressionOp | None = None

    @property
    def num_workers(self) -> int:
        return self.topology.num_workers


def heterogeneous_scenario(
    num_workers: int = 8,
    dynamic: bool = True,
    slowdown_period_s: float = 300.0,
    slowdown_range: tuple[float, float] = (2.0, 100.0),
    seed: int = 0,
    num_slow_links: int = 1,
) -> Scenario:
    """Section V-A's heterogeneous multi-tenant cluster.

    Workers are spread across servers per the paper's layout (4/8/16 workers
    on 2/3/4 servers); inter-machine links run at 1 Gbps, intra-machine at
    10 Gbps; when ``dynamic``, ``num_slow_links`` random links are slowed
    2x-100x with the slowed set rotating every ``slowdown_period_s``
    (paper: 1 link, 5 minutes).
    """
    cluster = ClusterSpec.paper_heterogeneous(num_workers)
    # Placement-implied links: bit-identical queries to dense matrices with
    # O(N) state, so the scenario scales to thousands of workers.
    links: LinkSpeedModel = ClusterLinks(cluster)
    if dynamic:
        links = DynamicSlowdownLinks(
            links,
            period_s=slowdown_period_s,
            slowdown_range=slowdown_range,
            seed=seed,
            num_slow_links=num_slow_links,
        )
    return Scenario(
        name=f"heterogeneous-{num_workers}w" + ("-dynamic" if dynamic else ""),
        topology=Topology.fully_connected(num_workers),
        links=links,
    )


def homogeneous_scenario(num_workers: int = 8) -> Scenario:
    """Section V-A's homogeneous setting: one server, 10 Gbps virtual switch."""
    cluster = ClusterSpec.paper_homogeneous(num_workers)
    return Scenario(
        name=f"homogeneous-{num_workers}w",
        topology=Topology.fully_connected(num_workers),
        links=ClusterLinks(cluster),
    )


def multi_cloud_scenario() -> Scenario:
    """Appendix G: six workers, one per cloud region, WAN links."""
    links = multi_cloud_links()
    return Scenario(
        name="multi-cloud-6r",
        topology=Topology.fully_connected(links.num_workers),
        links=links,
    )


# -- the scenario catalog ------------------------------------------------------


@dataclass(frozen=True)
class ScenarioParam:
    """One tunable knob of a scenario family.

    The parameter's type is the type of its ``default``; :meth:`coerce`
    turns CLI strings (and any compatible value) into that type, so sweep
    cache keys are canonical no matter how the value was spelled. A float
    parameter must be finite: no builder means anything by NaN or infinity.
    """

    name: str
    default: object
    doc: str = ""

    def coerce(self, value):
        kind = type(self.default)
        if kind is bool:
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in ("true", "1", "yes", "on"):
                    return True
                if lowered in ("false", "0", "no", "off"):
                    return False
                raise ValueError(f"parameter {self.name!r}: not a boolean: {value!r}")
            return bool(value)
        try:
            coerced = kind(value)
        except (TypeError, ValueError, OverflowError) as error:
            raise ValueError(
                f"parameter {self.name!r} expects {kind.__name__}, got {value!r}"
            ) from error
        if kind is float and not math.isfinite(coerced):
            raise ValueError(f"parameter {self.name!r} must be finite, got {value!r}")
        return coerced


# The shared axes every family accepts on top of its own parameters. The
# graph axis runs the family on any TOPOLOGY_KINDS graph instead of the
# paper's complete graph -- optionally a *time-varying* one: edge_failures > 0
# overlays a seeded random fail/repair schedule (DynamicTopology) on the
# chosen graph. The compression axis attaches a message-compression op.
_SHARED_AXIS_PARAMS = (
    ScenarioParam(
        "topology", "full",
        "communication graph family: " + "|".join(TOPOLOGY_KINDS),
    ),
    ScenarioParam(
        "edge_probability", 0.25, "edge probability of the random graph",
    ),
    ScenarioParam(
        "edge_failures", 0,
        "scheduled edge-failure episodes over edge_horizon_s (0 = frozen graph)",
    ),
    ScenarioParam(
        "edge_downtime_s", 30.0,
        "seconds a failed edge stays down before its repair",
    ),
    ScenarioParam(
        "edge_horizon_s", 600.0,
        "window the edge failures are spread over",
    ),
    ScenarioParam(
        "compression", "none",
        "message-compression op: " + "|".join(compression_op_names()),
    ),
    ScenarioParam(
        "compression_param", 0.0,
        "the op's fidelity knob (topk: kept fraction k; qsgd: bits; "
        "layerwise: layer fraction; 0 = the op's default); inert for "
        "compression=none",
    ),
)


@dataclass(frozen=True)
class ScenarioFamily:
    """A named, parameterizable scenario builder.

    The family owns the schema (its own ``params`` plus the shared axes,
    the worker count) and the canonical form of an override set; whether a
    parameter set can be built is for building alone to say, and
    :class:`~repro.experiments.sweeps.SweepSpec` asks it by building.

    Attributes:
        name: catalog key (also the sweep/CLI scenario "kind").
        description: one-line catalog entry.
        builder: ``(num_workers, seed, **params) -> Scenario`` over the
            family's own ``params`` only, on the complete graph;
            :meth:`build` applies the shared axes and the name.
        params: the family's own parameters; overrides outside them and
            the shared axes are rejected.
        fixed_workers: worker count the family is pinned to (``None`` =
            any ``>= 2``).
        has_churn: whether built scenarios carry a churn schedule (lets the
            batched backend run those cells one by one without a build).
    """

    name: str
    description: str
    builder: Callable[..., Scenario]
    params: tuple[ScenarioParam, ...] = ()
    fixed_workers: int | None = None
    has_churn: bool = False

    @property
    def schema(self) -> tuple[ScenarioParam, ...]:
        return self.params + _SHARED_AXIS_PARAMS

    def param(self, name: str) -> ScenarioParam:
        for parameter in self.schema:
            if parameter.name == name:
                return parameter
        raise ValueError(
            f"scenario family {self.name!r} has no parameter {name!r}; "
            f"valid: {self.param_names()}"
        )

    def param_names(self) -> list[str]:
        return [parameter.name for parameter in self.schema]

    def merge(self, overrides: dict) -> dict:
        """The schema defaults with the overrides on top, each override
        checked against the schema and coerced to its parameter's type."""
        merged = {parameter.name: parameter.default for parameter in self.schema}
        merged.update(
            (key, self.param(key).coerce(value)) for key, value in overrides.items()
        )
        return merged

    def canonical_params(self, overrides: dict) -> tuple[tuple[str, object], ...]:
        """The overrides as sorted ``(name, value)`` pairs, without any that
        builds the same scenario as leaving it out.

        Dropped: a value equal to the schema default; ``edge_probability``
        unless the topology is one of the randomized kinds (a ring spelled
        with any edge probability is the same ring); the edge-failure shape
        parameters while ``edge_failures`` is 0 (the graph stays frozen);
        and ``compression_param`` while the op is ``"none"``.
        """
        merged = self.merge(overrides)
        inert = set()
        if merged["topology"] not in RANDOMIZED_TOPOLOGY_KINDS:
            inert.add("edge_probability")
        if not merged["edge_failures"]:
            inert.update(("edge_downtime_s", "edge_horizon_s"))
        if merged["compression"] == "none":
            inert.add("compression_param")
        return tuple(sorted(
            (key, merged[key]) for key in overrides
            if key not in inert and merged[key] != self.param(key).default
        ))

    def validate_workers(self, num_workers: int) -> None:
        if num_workers < 2:
            raise ValueError("num_workers must be >= 2")
        if self.fixed_workers is not None and num_workers != self.fixed_workers:
            raise ValueError(
                f"the {self.name} scenario is fixed at {self.fixed_workers} "
                f"workers, got num_workers={num_workers}"
            )

    def build(self, num_workers: int = 8, seed: int = 0, **overrides) -> Scenario:
        """The family's scenario on the requested shared axes, named
        ``{family}-{num_workers}w``.

        The builder sees only the family's own parameters and builds on the
        complete graph. A ``topology`` other than ``"full"`` swaps in that
        graph family; ``edge_failures > 0`` promotes the graph to a
        :class:`~repro.graph.topology.DynamicTopology` with a seeded random
        fail/repair schedule (always-connected per segment, at most one edge
        down at a time; see :meth:`EdgeSchedule.random`). Links and churn are
        untouched: the link model describes the physical network, the
        topology who is *allowed* to gossip over it and when. A lossy
        ``compression`` op is built via :func:`make_compression_op` and
        attached; ``"none"`` (the default) attaches nothing.

        Every check on these axes happens here or in the constructors called
        here, so building a scenario is how a sweep checks that it can run.
        """
        self.validate_workers(num_workers)
        params = self.merge(overrides)
        scenario = self.builder(
            num_workers, seed, **{p.name: params[p.name] for p in self.params}
        )
        topology = scenario.topology
        if params["topology"] != "full":  # "full" keeps the builder's graph
            topology = make_topology(
                params["topology"], num_workers, params["edge_probability"], seed
            )
        if params["edge_failures"]:  # a negative count fails in EdgeSchedule.random
            schedule = EdgeSchedule.random(
                topology,
                horizon_s=params["edge_horizon_s"],
                num_failures=params["edge_failures"],
                downtime_s=params["edge_downtime_s"],
                seed=seed,
            )
            topology = DynamicTopology(topology, schedule)
        compression = None
        if params["compression"] != "none":
            compression = make_compression_op(
                params["compression"], params["compression_param"]
            )
        return replace(
            scenario,
            name=f"{self.name}-{num_workers}w",
            topology=topology,
            compression=compression,
        )


def _build_heterogeneous(
    num_workers, seed, period_s, slowdown_low, slowdown_high, num_slow_links
):
    return heterogeneous_scenario(
        num_workers,
        dynamic=True,
        slowdown_period_s=period_s,
        slowdown_range=(slowdown_low, slowdown_high),
        seed=seed,
        num_slow_links=num_slow_links,
    )


def _build_trace(generator, num_workers, seed, base_gbps, **params):
    """A trace family: its parameters go straight to ``generator``, except
    that bandwidth is spelled in Gbps and the burst range as two floats."""
    if "burst_factor_low" in params:
        params["burst_factor_range"] = (
            params.pop("burst_factor_low"), params.pop("burst_factor_high")
        )
    links = generator(
        num_workers, base_bandwidth=gbps_to_bytes_per_s(base_gbps), seed=seed, **params
    )
    return Scenario(
        name="trace",
        topology=Topology.fully_connected(num_workers),
        links=links,
    )


def _build_trace_file(num_workers, seed, path, latency_s):
    if not path:
        raise ValueError("the trace-file scenario needs path=<file.json|file.csv>")
    if not os.path.exists(path):
        raise ValueError(f"trace file not found: {path!r}")
    if path.endswith(".csv"):
        # Worker count is inferred from the file, then checked below, so a
        # mismatch reports the same way for both formats.
        links = TraceLinks.from_csv(path, latency=latency_s)
    else:
        links = TraceLinks.from_json(path)
    if links.num_workers != num_workers:
        raise ValueError(
            f"trace file {path!r} describes {links.num_workers} workers, "
            f"scenario asked for {num_workers}"
        )
    return Scenario(
        name="trace-file",
        topology=Topology.fully_connected(num_workers),
        links=links,
    )


def _build_churn(
    num_workers, seed, num_departures, downtime_s, horizon_s, min_active,
    dynamic, period_s,
):
    base = heterogeneous_scenario(
        num_workers, dynamic=dynamic, slowdown_period_s=period_s, seed=seed
    )
    churn = ChurnSchedule.random(
        num_workers,
        horizon_s=horizon_s,
        num_departures=num_departures,
        downtime_s=downtime_s,
        seed=seed,
        min_active=min_active,
    )
    return replace(base, churn=churn)


_TRACE_COMMON = (
    ScenarioParam("base_gbps", 1.0, "quiet-network bandwidth of every link, Gbps"),
    ScenarioParam("duration_s", 3600.0, "trace horizon; the last segment holds after it"),
    ScenarioParam("step_s", 60.0, "piecewise-constant sampling step, seconds"),
    ScenarioParam("latency_s", 0.001, "one-way link latency, seconds"),
)

SCENARIO_FAMILIES: dict[str, ScenarioFamily] = {family.name: family for family in (
    ScenarioFamily(
        name="homogeneous",
        description="Section V-A single-server 10 Gbps virtual switch",
        builder=lambda num_workers, seed: homogeneous_scenario(num_workers),
    ),
    ScenarioFamily(
        name="heterogeneous",
        description="Section V-A multi-tenant cluster, rotating slowed link",
        builder=_build_heterogeneous,
        params=(
            ScenarioParam("period_s", 300.0, "slow-link rotation period (paper: 300 s)"),
            ScenarioParam("slowdown_low", 2.0, "minimum slowdown factor"),
            ScenarioParam("slowdown_high", 100.0, "maximum slowdown factor"),
            ScenarioParam("num_slow_links", 1, "simultaneously slowed links"),
        ),
    ),
    ScenarioFamily(
        name="heterogeneous-static",
        description="the heterogeneous cluster with the slowdown frozen off",
        builder=lambda num_workers, seed: heterogeneous_scenario(
            num_workers, dynamic=False
        ),
    ),
    ScenarioFamily(
        name="multi-cloud",
        description="Appendix G six-region WAN (fixed at 6 workers)",
        builder=lambda num_workers, seed: multi_cloud_scenario(),
        fixed_workers=6,
    ),
    ScenarioFamily(
        name="trace-diurnal",
        description="sinusoidal daily-cycle bandwidth, per-pair phase offsets",
        builder=functools.partial(_build_trace, diurnal_trace),
        params=_TRACE_COMMON + (
            ScenarioParam("amplitude", 0.6, "sine amplitude as a fraction of base"),
            ScenarioParam("period_s", 1800.0, "diurnal cycle length, seconds"),
        ),
    ),
    ScenarioFamily(
        name="trace-random-walk",
        description="log-space multiplicative random walk per link",
        builder=functools.partial(_build_trace, random_walk_trace),
        params=_TRACE_COMMON + (
            ScenarioParam("sigma", 0.15, "per-step log-normal walk std"),
        ),
    ),
    ScenarioFamily(
        name="trace-burst",
        description="links intermittently crushed by bursty cross-traffic",
        builder=functools.partial(_build_trace, burst_congestion_trace),
        params=_TRACE_COMMON + (
            ScenarioParam("burst_probability", 0.08, "per-step burst start probability"),
            ScenarioParam("burst_factor_low", 5.0, "minimum burst slowdown factor"),
            ScenarioParam("burst_factor_high", 50.0, "maximum burst slowdown factor"),
        ),
    ),
    ScenarioFamily(
        name="trace-file",
        description="replay a JSON/CSV bandwidth trace from disk",
        builder=_build_trace_file,
        params=(
            ScenarioParam("path", "", "trace file (.json or .csv; format in links.py)"),
            ScenarioParam("latency_s", 0.001, "link latency for CSV traces, seconds"),
        ),
    ),
    ScenarioFamily(
        name="churn",
        description="heterogeneous network plus scheduled worker departures/rejoins",
        builder=_build_churn,
        params=(
            ScenarioParam("num_departures", 2, "how many departures over the horizon"),
            ScenarioParam("downtime_s", 60.0, "seconds a departed worker stays away"),
            ScenarioParam("horizon_s", 600.0, "window the departures are spread over"),
            ScenarioParam("min_active", 2, "validated floor on active workers"),
            ScenarioParam("dynamic", True, "keep the rotating slowed link too"),
            ScenarioParam("period_s", 300.0, "slow-link rotation period, seconds"),
        ),
        has_churn=True,
    ),
)}


def scenario_names() -> list[str]:
    """All family names, sorted."""
    return sorted(SCENARIO_FAMILIES)


def get_scenario_family(name: str) -> ScenarioFamily:
    if name not in SCENARIO_FAMILIES:
        raise ValueError(
            f"unknown scenario kind {name!r}; valid: {scenario_names()}"
        )
    return SCENARIO_FAMILIES[name]


def build_scenario(name: str, num_workers: int = 8, seed: int = 0, **params) -> Scenario:
    """Build a catalog family by name."""
    return get_scenario_family(name).build(num_workers, seed, **params)


# Seed-sequence tag separating model-parameter initialization from the data
# stream (`default_rng(seed)` in make_workload) and every other seed-derived
# stream -- the named-stream pattern repro-lint's RPL004 enforces. Replaced
# the collision-prone `default_rng(seed + 1)` (CACHE_VERSION 5).
_MODEL_INIT_STREAM = 0x10D3


@dataclass
class Workload:
    """The learning problem handed to a trainer.

    ``make_tasks()`` builds a *fresh* set of worker tasks (new model clones,
    new samplers) so several algorithms can be compared on identical
    problems without sharing mutable state.
    """

    model_name: str
    dataset_name: str
    profile: ModelCostProfile
    shards: list[Dataset]
    batch_sizes: list[int]
    test_data: tuple[np.ndarray, np.ndarray] | None
    init_params: np.ndarray
    num_features: int
    num_classes: int
    seed: int

    @property
    def num_workers(self) -> int:
        return len(self.shards)

    def make_tasks(self) -> list[WorkerTask]:
        """Fresh tasks: clones of one model set to ``init_params``, samplers
        on the ``[seed, 0, i]`` streams."""
        template = build_model(self.model_name, self.num_features, self.num_classes)
        template.set_params(self.init_params)
        tasks = []
        for i, (shard, batch) in enumerate(zip(self.shards, self.batch_sizes)):
            sampler = BatchSampler(
                shard, batch, np.random.default_rng([self.seed, 0, i])
            )
            tasks.append(WorkerTask(template.clone(), sampler))
        return tasks


def check_partition(
    partition: str,
    segments_per_worker: Sequence[int] | None,
    lost_labels: Sequence[Sequence[int]] | None,
    num_workers: int | None,
) -> None:
    """Reject an unknown partition name, one without the argument it needs,
    or -- given ``num_workers`` -- a per-worker argument of the wrong length.

    :class:`~repro.experiments.sweeps.WorkloadSpec` calls it before any
    worker count is known (``None``), ``SweepSpec`` once per scenario, and
    :func:`make_workload` on every build.
    """
    per_worker = {
        "uniform": None,
        "segments": ("segments_per_worker", segments_per_worker),
        "drop-labels": ("lost_labels", lost_labels),
    }
    if partition not in per_worker:
        raise ValueError(
            f"unknown partition {partition!r}; valid: {', '.join(map(repr, per_worker))}"
        )
    if per_worker[partition] is None:
        return
    name, values = per_worker[partition]
    if values is None:
        raise ValueError(f"partition={partition!r} needs {name}")
    if num_workers is not None and len(values) != num_workers:
        raise ValueError(
            f"{name} length ({len(values)}) must equal num_workers ({num_workers})"
        )


def make_workload(
    model: str = "resnet18",
    dataset: str = "cifar10",
    num_workers: int = 8,
    partition: str = "uniform",
    batch_size: int = 32,
    num_samples: int | None = None,
    segments_per_worker: Sequence[int] | None = None,
    lost_labels: Sequence[Sequence[int]] | None = None,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> Workload:
    """Build a workload per the paper's recipes.

    Args:
        model: paper architecture name (drives both the numpy stand-in and
            the cost profile).
        dataset: registry dataset name.
        num_workers: worker count ``M``.
        partition: ``"uniform"`` | ``"segments"`` | ``"drop-labels"``.
        batch_size: base batch size; under ``"segments"`` worker ``i`` uses
            ``batch_size * segments_per_worker[i]`` (Section V-F's
            ``64 x segment count`` rule, scaled).
        num_samples: dataset size override (None = registry default).
        segments_per_worker: required for ``partition="segments"``.
        lost_labels: required for ``partition="drop-labels"``.
        test_fraction: held-out fraction for accuracy evaluation.
        seed: root seed for data generation, split, partition, and init.
    """
    check_partition(partition, segments_per_worker, lost_labels, num_workers)
    rng = np.random.default_rng(seed)
    full = load_dataset(dataset, rng, num_samples)
    train, test = train_test_split(full, test_fraction, rng)

    if partition == "uniform":
        shards = partition_uniform(train, num_workers, rng)
        batch_sizes = [batch_size] * num_workers
    elif partition == "segments":
        shards = partition_segments(train, segments_per_worker, rng)
        batch_sizes = [batch_size * s for s in segments_per_worker]
    else:
        shards = partition_drop_labels(train, lost_labels)
        batch_sizes = [batch_size] * num_workers

    init_model = build_model(
        model, train.num_features, train.num_classes,
        rng=np.random.default_rng([seed, _MODEL_INIT_STREAM]),
    )
    return Workload(
        model_name=model,
        dataset_name=dataset,
        profile=get_cost_profile(model),
        shards=shards,
        batch_sizes=batch_sizes,
        test_data=(test.features, test.labels),
        init_params=init_model.get_params(),
        num_features=train.num_features,
        num_classes=train.num_classes,
        seed=seed,
    )


def make_quadratic_workload(
    num_workers: int,
    dim: int = 8,
    noise_std: float = 0.05,
    model: str = "resnet18",
    seed: int = 0,
) -> tuple[list[WorkerTask], np.ndarray, ModelCostProfile]:
    """Strongly convex consensus workload for theory-facing experiments.

    Returns ``(tasks, x_star, profile)``; tasks have no samplers, so epoch
    accounting falls back to the iteration hint.
    """
    problems, x_star = make_consensus_quadratics(
        num_workers, dim, np.random.default_rng(seed), noise_std=noise_std
    )
    tasks = [WorkerTask(problem) for problem in problems]
    return tasks, x_star, get_cost_profile(model)

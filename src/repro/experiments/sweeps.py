"""Declarative experiment sweeps: grids of (algorithm x seed x scenario).

One comparison runs a handful of trainers; credible comparisons across many
seeds, topologies, and network regimes need orders of magnitude more. This
module provides the scale-out layer, and every figure and table of the
paper (:mod:`repro.experiments.paper`) is declared in its spec types:

- :class:`SweepSpec` describes a grid declaratively (plain strings and
  numbers, so every cell is hashable and its :meth:`SweepCell.describe`
  JSON rebuilds it exactly);
- :func:`run_sweep` executes the grid through a pluggable
  :class:`~repro.experiments.executors.SweepExecutor` backend -- inline,
  local process pool, or the multi-host file-queue broker -- with
  *deterministic per-cell seeding*: a cell's result is a pure function of
  its spec, never of scheduling order, worker count, or backend, so every
  backend is bit-identical to every other;
- :class:`~repro.experiments.executors.ResultCache` (re-exported here)
  stores finished cells on disk keyed by a hash of the cell spec, so
  re-running a sweep only pays for cells that changed;
- :func:`aggregate_sweep` folds cell results into the tabular form the
  reporting helpers render, including per-cell wall-clock telemetry.

The execution backends themselves live in
:mod:`repro.experiments.executors`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import TrainerConfig
from repro.datasets.synthetic import DATASET_REGISTRY
from repro.experiments.common import ExperimentOutput
from repro.experiments.executors import (
    CellExecution,
    InlineExecutor,
    ProcessExecutor,
    ResultCache,
    SweepExecutor,
)
from repro.experiments.reporting import mean_std
from repro.experiments.scenarios import (
    Scenario,
    Workload,
    build_scenario,
    check_partition,
    get_scenario_family,
    make_workload,
)
from repro.ml.optim import ConstantLR, LRSchedule, PlateauDecayLR, StepDecayLR
from repro.network.costmodel import MODEL_ZOO
from repro.simulation.records import TrainingResult

__all__ = [
    "CACHE_VERSION",
    "ScenarioSpec",
    "WorkloadSpec",
    "RunSpec",
    "SweepSpec",
    "SweepCell",
    "CellOutcome",
    "SweepProgress",
    "SweepResult",
    "ResultCache",
    "run_sweep",
    "aggregate_outcomes",
    "aggregate_sweep",
]

# Folded into every cache key; bump whenever trainer numerics change so
# stale on-disk results can never masquerade as fresh ones. Version 2:
# scenario specs gained per-cell parameter grids (the cell payload changed).
# Version 3: the topology scenario axis landed and the synchronous trainers
# gained round-based churn (allreduce/PS numerics changed under churn), so
# v2 entries must never be reused.
# Version 4: the time-varying topology axis (edge_failures) landed and the
# NetMax monitor now solves Algorithm 3 through the signature-keyed policy
# cache on *quantized* time matrices (netmax/adpsgd-monitor numerics can
# shift at the quantization level), so v3 entries must never be reused.
# Version 5: model-parameter initialization moved from the collision-prone
# `default_rng(seed + 1)` to the named `[seed, _MODEL_INIT_STREAM]` stream
# (repro-lint RPL004), shifting every workload's initial parameters, so v4
# entries must never be reused.
# Version 6: Algorithm 3's per-worker LP is solved in closed form instead of
# by HiGHS (`solve_policy_lp`): same optimum where it was unique, but tied
# link times now share their mass equally and the fast-link tie-break is
# exact, so netmax/adpsgd-monitor policies can differ from v5's.
CACHE_VERSION = 6


# -- declarative grid specs ----------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """Names a scenario family buildable from ``(kind, num_workers, seed)``
    plus declarative parameter overrides.

    ``params`` is a tuple of ``(name, value)`` pairs resolved against the
    family's schema and stored in the family's canonical form
    (:meth:`~repro.experiments.scenarios.ScenarioFamily.canonical_params`):
    coerced, key-sorted, and without overrides that build the same scenario
    as leaving them out -- so two spellings of the same cell (including
    spelling out a default) hash to the same cache key. Per-cell scenario
    grids are just lists of ScenarioSpecs differing only in ``params``.

    Construction checks only the schema (the family, the worker count,
    parameter names and types); whether the parameters build is checked
    by building, in :class:`SweepSpec`.
    """

    kind: str = "heterogeneous"
    num_workers: int = 8
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        family = get_scenario_family(self.kind)
        family.validate_workers(self.num_workers)
        object.__setattr__(
            self, "params", family.canonical_params(dict(self.params))
        )

    def has_dynamic_edges(self) -> bool:
        """Whether built scenarios carry a time-varying topology.

        After canonicalization ``edge_failures`` survives in ``params``
        iff it is non-zero, so this is a pure spec-level query (no build)."""
        return any(key == "edge_failures" for key, _ in self.params)

    def has_compression(self) -> bool:
        """Whether built scenarios carry a (lossy) compression op.

        After canonicalization ``compression`` survives in ``params`` iff
        it names a non-``none`` op, so this is a pure spec-level query."""
        return any(key == "compression" for key, _ in self.params)

    def build(self, seed: int) -> Scenario:
        return build_scenario(
            self.kind, num_workers=self.num_workers, seed=seed, **dict(self.params)
        )

    def label(self) -> str:
        base = f"{self.kind}-{self.num_workers}w"
        if not self.params:
            return base
        rendered = ",".join(f"{key}={value}" for key, value in self.params)
        return f"{base}[{rendered}]"


@dataclass(frozen=True)
class WorkloadSpec:
    """Names a learning problem buildable from ``(num_workers, seed)``."""

    model: str = "mobilenet"
    dataset: str = "mnist"
    batch_size: int = 32
    num_samples: int | None = 512
    partition: str = "uniform"
    segments_per_worker: tuple[int, ...] | None = None
    lost_labels: tuple[tuple[int, ...], ...] | None = None
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        # Fail at spec construction, not cell execution, on everything that
        # is knowable without a worker count (SweepSpec checks the rest per
        # scenario): a workload that cannot be built should never survive a
        # dry run.
        dataset = DATASET_REGISTRY.get(self.dataset.lower().removesuffix("-syn"))
        if dataset is None:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; valid: {sorted(DATASET_REGISTRY)}"
            )
        if self.model.lower() not in MODEL_ZOO:
            raise ValueError(
                f"unknown model {self.model!r}; valid: {sorted(MODEL_ZOO)}"
            )
        if self.num_samples is not None and self.num_samples < dataset.num_classes:
            raise ValueError(
                f"num_samples ({self.num_samples}) must be >= the "
                f"{dataset.num_classes} classes of {dataset.name}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        check_partition(self.partition, self.segments_per_worker, self.lost_labels, None)

    def build(self, num_workers: int, seed: int) -> Workload:
        return make_workload(
            self.model,
            self.dataset,
            num_workers=num_workers,
            partition=self.partition,
            batch_size=self.batch_size,
            num_samples=self.num_samples,
            segments_per_worker=self.segments_per_worker,
            lost_labels=self.lost_labels,
            test_fraction=self.test_fraction,
            seed=seed,
        )


@dataclass(frozen=True)
class RunSpec:
    """Declarative :class:`TrainerConfig`: hashable, JSON-serializable.

    ``lr`` names the schedule as a tuple so cache keys stay stable:
    ``("plateau", base)``, ``("constant", base)``,
    ``("step", base, milestone, ...)``, each mapping onto the corresponding
    :mod:`repro.ml.optim` class.
    """

    max_sim_time: float = 60.0
    eval_interval_s: float | None = None
    max_epochs: float | None = None
    eval_max_samples: int = 256
    lr: tuple = ("plateau", 0.1)

    def __post_init__(self) -> None:
        # Check by building: a config that cannot be built (a non-positive
        # horizon, an unknown lr kind, ...) fails here, not in every cell.
        self.build(0)

    def _schedule(self) -> LRSchedule:
        kind, *args = self.lr
        if kind == "plateau":
            return PlateauDecayLR(float(args[0]))
        if kind == "constant":
            return ConstantLR(float(args[0]))
        if kind == "step":
            return StepDecayLR(float(args[0]), milestones=tuple(args[1:]))
        raise ValueError(f"unknown lr spec {self.lr!r}")

    def build(self, seed: int) -> TrainerConfig:
        eval_interval = self.eval_interval_s
        if eval_interval is None:
            eval_interval = max(5.0, self.max_sim_time / 25)
        return TrainerConfig(
            lr_schedule=self._schedule(),
            max_sim_time=self.max_sim_time,
            max_epochs=self.max_epochs,
            eval_interval_s=eval_interval,
            eval_max_samples=self.eval_max_samples,
            seed=seed,
        )


def _tuples(value):
    """``value`` read back from JSON with every list turned into the tuple
    it was written from (dicts are walked)."""
    if isinstance(value, list):
        return tuple(_tuples(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuples(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class SweepCell:
    """One point of the grid; executing it is a pure function of this spec."""

    algorithm: str
    seed: int
    scenario: ScenarioSpec
    workload: WorkloadSpec
    run: RunSpec
    trainer_kwargs: tuple[tuple[str, object], ...] = ()

    def describe(self) -> dict:
        """The cell's one serialized form: the cache-key payload, and (as a
        JSON line) the queue's task file. :meth:`from_describe` inverts it."""
        return {
            "cache_version": CACHE_VERSION,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "scenario": {"kind": self.scenario.kind,
                         "num_workers": self.scenario.num_workers,
                         "params": [[key, value]
                                    for key, value in self.scenario.params]},
            "workload": {
                "model": self.workload.model,
                "dataset": self.workload.dataset,
                "batch_size": self.workload.batch_size,
                "num_samples": self.workload.num_samples,
                "partition": self.workload.partition,
                "segments_per_worker": self.workload.segments_per_worker,
                "lost_labels": self.workload.lost_labels,
                "test_fraction": self.workload.test_fraction,
            },
            "run": {
                "max_sim_time": self.run.max_sim_time,
                "eval_interval_s": self.run.eval_interval_s,
                "max_epochs": self.run.max_epochs,
                "eval_max_samples": self.run.eval_max_samples,
                "lr": list(self.run.lr),
            },
            "trainer_kwargs": [[k, v] for k, v in self.trainer_kwargs],
        }

    @classmethod
    def from_describe(cls, description: dict) -> SweepCell:
        """The cell whose :meth:`describe` is ``description`` (as read back
        from JSON: lists stand for tuples). A description written under
        another ``CACHE_VERSION`` raises ``ValueError``: its numerics are not
        this version's."""
        version = description["cache_version"]
        if version != CACHE_VERSION:
            raise ValueError(
                f"cell of cache_version {version!r}, not {CACHE_VERSION}"
            )
        return cls(
            algorithm=description["algorithm"],
            seed=description["seed"],
            scenario=ScenarioSpec(**_tuples(description["scenario"])),
            workload=WorkloadSpec(**_tuples(description["workload"])),
            run=RunSpec(**_tuples(description["run"])),
            trainer_kwargs=_tuples(description["trainer_kwargs"]),
        )

    def cache_key(self) -> str:
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def label(self) -> str:
        return f"{self.algorithm}/s{self.seed}/{self.scenario.label()}"

    def build_trainer(self):
        """Construct the cell's trainer without running it.

        The batched backend's entry point: everything (scenario, workload,
        config, trainer) is built through exactly the same code path as
        :meth:`execute`, so an externally stepped trainer starts from a
        bit-identical state.
        """
        from repro.experiments.harness import build_trainer

        scenario = self.scenario.build(self.seed)
        workload = self.workload.build(scenario.num_workers, self.seed)
        config = self.run.build(self.seed)
        return build_trainer(
            self.algorithm,
            scenario,
            workload,
            config,
            **dict(self.trainer_kwargs),
        )

    def execute(self) -> TrainingResult:
        """Build everything from the spec (deterministic per-cell seeding)."""
        return self.build_trainer().run()


@dataclass(frozen=True)
class SweepSpec:
    """The declarative grid: algorithms x seeds x scenarios.

    Construction builds every scenario of the grid at every seed of the grid
    -- the same ``ScenarioSpec.build(seed)`` call each cell makes -- and
    checks the workload's per-worker arguments against every scenario's
    worker count, so a spec that constructs (and a ``--dry-run`` that lists
    it) has cells that build.
    """

    algorithms: tuple[str, ...]
    seeds: tuple[int, ...]
    scenarios: tuple[ScenarioSpec, ...] = (ScenarioSpec(),)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    run: RunSpec = field(default_factory=RunSpec)
    # Per-algorithm constructor extras: (("netmax", (("adaptive", False),)),)
    trainer_kwargs: tuple[tuple[str, tuple[tuple[str, object], ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ValueError("a sweep needs at least one algorithm")
        if not self.seeds:
            raise ValueError("a sweep needs at least one seed")
        if not self.scenarios:
            raise ValueError("a sweep needs at least one scenario")
        # A repeat would run the same cell twice and count it as two seeds
        # (a zero-width spread that is not real).
        for axis, values in (
            ("seed", self.seeds),
            ("algorithm", [name.lower() for name in self.algorithms]),
        ):
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"repeated {axis}(s) {repeated} in the sweep")
        # Fail at spec construction, not cell execution: an edge_failures
        # cell paired with a trainer that has no per-edge gossip semantics
        # (the synchronous baselines) can never run, so it must never
        # survive a dry run either.
        dynamic_labels = sorted({
            spec.label() for spec in self.scenarios if spec.has_dynamic_edges()
        })
        if dynamic_labels:
            from repro.algorithms.registry import TRAINER_REGISTRY

            incapable = sorted({
                name for name in self.algorithms
                if name.lower() in TRAINER_REGISTRY
                and not TRAINER_REGISTRY[name.lower()].supports_dynamic_edges
            })
            if incapable:
                raise ValueError(
                    f"algorithm(s) {incapable} do not support time-varying "
                    f"topologies and cannot run scenario(s) {dynamic_labels}"
                )
        workload = self.workload
        for scenario in dict.fromkeys(self.scenarios):
            check_partition(
                workload.partition, workload.segments_per_worker,
                workload.lost_labels, scenario.num_workers,
            )
            for seed in self.seeds:
                try:
                    scenario.build(seed)
                except ValueError as error:
                    raise ValueError(
                        f"scenario {scenario.label()} does not build at seed "
                        f"{seed}: {error}"
                    ) from error
        # A cell travels as its describe() JSON (cache key, queue task): a
        # value JSON cannot carry exactly would give the cell a second key
        # or a task that rebuilds another cell.
        for cell in self.cells():
            try:
                text = json.dumps(cell.describe(), sort_keys=True)
            except TypeError as error:
                raise ValueError(f"cell {cell.label()}: {error}") from error
            if SweepCell.from_describe(json.loads(text)) != cell:
                raise ValueError(
                    f"cell {cell.label()} holds a value its JSON form does "
                    "not carry exactly"
                )

    def cells(self) -> list[SweepCell]:
        """The full grid in deterministic (scenario, algorithm, seed) order."""
        extras = dict(self.trainer_kwargs)
        return [
            SweepCell(
                algorithm=algorithm,
                seed=seed,
                scenario=scenario,
                workload=self.workload,
                run=self.run,
                trainer_kwargs=tuple(extras.get(algorithm, ())),
            )
            for scenario in self.scenarios
            for algorithm in self.algorithms
            for seed in self.seeds
        ]


# -- execution + caching -------------------------------------------------------


@dataclass
class CellOutcome:
    """One executed (or cache-loaded) cell."""

    cell: SweepCell
    result: TrainingResult
    from_cache: bool
    runtime_s: float
    attempts: int = 1
    worker: str | None = None


@dataclass
class SweepResult:
    """All outcomes of one sweep execution, in grid order."""

    spec: SweepSpec
    outcomes: list[CellOutcome]
    wall_time_s: float = 0.0
    backend: str = "inline"

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def cells_from_cache(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.from_cache)

    @property
    def cells_executed(self) -> int:
        return len(self.outcomes) - self.cells_from_cache

    def summary(self) -> dict:
        """Machine-readable sweep summary (the ``--json-summary`` payload)."""
        return {
            "cells": len(self.outcomes),
            "executed": self.cells_executed,
            "cached": self.cells_from_cache,
            "backend": self.backend,
            "wall_s": round(self.wall_time_s, 3),
        }


@dataclass
class SweepProgress:
    """A streaming snapshot of a sweep mid-drain.

    ``outcomes`` holds every cell finished so far, in grid order (a prefix
    filter of the final :class:`SweepResult`), so any aggregation over a
    snapshot equals the same aggregation over that subset of the finished
    sweep. ``done`` marks the final snapshot, whose outcomes are exactly
    the SweepResult's -- the streamed end state is bit-identical to the
    batch path by construction.
    """

    spec: SweepSpec
    outcomes: list[CellOutcome]
    completed: int
    total: int
    backend: str
    done: bool = False

    def aggregate(self) -> ExperimentOutput:
        """The report table over the cells finished so far."""
        suffix = "final" if self.done else "streaming"
        return aggregate_outcomes(
            self.spec,
            self.outcomes,
            notes=f"{self.completed}/{self.total} cell(s) done ({suffix}).",
        )


def run_sweep(
    spec: SweepSpec,
    parallel: int = 0,
    cache_dir: str | None = None,
    force: bool = False,
    executor: SweepExecutor | None = None,
    stream: Callable[[SweepProgress], None] | None = None,
) -> SweepResult:
    """Execute every cell of the grid, reusing cached results where allowed.

    Args:
        spec: the declarative grid.
        parallel: process count for cell execution (``<= 1`` = in-process);
            shorthand for ``executor=ProcessExecutor(parallel)``. Results
            are identical for any value -- cells are independently seeded
            from their own spec.
        cache_dir: directory for the on-disk result cache (``None`` disables
            caching, except for the queue backend, which stores results in
            its queue directory by default).
        force: execute every cell even if a cached result exists (fresh
            results still overwrite the cache entries).
        executor: the execution backend (see
            :mod:`repro.experiments.executors`); overrides ``parallel``.
            All backends produce bit-identical outcomes.
        stream: incremental-aggregation hook: called with a
            :class:`SweepProgress` as each executed cell lands and exactly
            once more with ``done=True`` and the final outcomes, before
            this function returns. Purely observational -- results and
            their order are unaffected.
    """
    start = time.perf_counter()
    if executor is None:
        executor = ProcessExecutor(parallel) if parallel > 1 else InlineExecutor()
    if cache_dir is None:
        cache_dir = executor.default_cache_dir()
    cells = spec.cells()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    outcomes: list[CellOutcome | None] = [None] * len(cells)

    pending: list[int] = []
    for index, cell in enumerate(cells):
        if cache is not None and not force:
            cached = cache.load(cell.cache_key())
            if cached is not None:
                outcomes[index] = CellOutcome(cell, cached, True, 0.0)
                continue
        pending.append(index)

    if force and cache is not None:
        # Evict the stale entries up front so *every* backend re-executes:
        # the queue broker's workers treat an existing result file as
        # "cell done", so forcing through that backend would otherwise
        # serve the old results as fresh ones.
        for index in pending:
            try:
                os.unlink(cache.path(cells[index].cache_key()))
            except FileNotFoundError:
                pass

    def snapshot(done: bool = False) -> SweepProgress:
        finished = [outcome for outcome in outcomes if outcome is not None]
        return SweepProgress(
            spec=spec,
            outcomes=finished,
            completed=len(finished),
            total=len(cells),
            backend=executor.name,
            done=done,
        )

    def land(position: int, execution: CellExecution) -> None:
        index = pending[position]
        outcomes[index] = CellOutcome(
            cells[index],
            execution.result,
            False,
            execution.runtime_s,
            attempts=execution.attempts,
            worker=execution.worker,
        )
        if stream is not None:
            stream(snapshot())

    executor.run([cells[i] for i in pending], cache_dir, land)
    result = SweepResult(
        spec,
        outcomes,
        wall_time_s=time.perf_counter() - start,
        backend=executor.name,
    )
    if stream is not None:
        stream(snapshot(done=True))
    return result


# -- aggregation ---------------------------------------------------------------


def _sample_std(values: np.ndarray) -> float:
    """Across-seed spread as a sample (``ddof=1``) std; NaN when n < 2.

    Seeds are a sample drawn from the space of possible seeds, not the
    whole population, so the Bessel-corrected estimator applies; a single
    seed measures no spread (``format_mean_std`` renders the NaN band-free).
    """
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1))


def _nan_sample_std(values: np.ndarray) -> float:
    """NaN-aware sample std; NaN when fewer than two non-NaN values."""
    if np.count_nonzero(~np.isnan(values)) < 2:
        return float("nan")
    return float(np.nanstd(values, ddof=1))


def aggregate_outcomes(
    spec: SweepSpec, outcomes: list[CellOutcome], notes: str = ""
) -> ExperimentOutput:
    """Mean +- std summary per (algorithm, scenario) over ``outcomes``.

    The incremental core of :func:`aggregate_sweep`: it accepts *any*
    subset of a sweep's outcomes, so streaming snapshots mid-drain
    aggregate through exactly the code path the finished sweep uses --
    a partial table equals the full aggregation run on the same subset,
    and the final streamed table equals the batch table.
    """
    groups: dict[tuple[str, str], list[CellOutcome]] = {}
    for outcome in outcomes:
        key = (outcome.cell.algorithm, outcome.cell.scenario.label())
        groups.setdefault(key, []).append(outcome)

    rows: list[list[object]] = []
    for (algorithm, scenario_label), group in groups.items():
        results = [outcome.result for outcome in group]
        losses = np.array([r.history.final_loss() for r in results])
        accuracies = np.array([r.history.best_accuracy() for r in results])
        epoch_times = np.array(
            [r.costs.summary()["epoch_time"] for r in results]
        )
        has_accuracy = bool(np.isfinite(accuracies).any())
        cell_time_mean, cell_time_std = mean_std(
            [o.runtime_s for o in group if not o.from_cache]
        )
        rows.append(
            [
                algorithm,
                scenario_label,
                len(results),
                float(losses.mean()),
                _sample_std(losses),
                float(np.nanmean(accuracies)) if has_accuracy else float("nan"),
                _nan_sample_std(accuracies) if has_accuracy else float("nan"),
                float(epoch_times.mean()),
                _sample_std(epoch_times),
                cell_time_mean,
                cell_time_std,
            ]
        )
    return ExperimentOutput(
        experiment_id="sweep",
        title=(
            f"Sweep: {spec.workload.model} on {spec.workload.dataset}, "
            f"{len(spec.seeds)} seed(s) x {len(spec.scenarios)} scenario(s)"
        ),
        headers=[
            "algorithm",
            "scenario",
            "seeds",
            "final_loss_mean",
            "final_loss_std",
            "best_acc_mean",
            "best_acc_std",
            "epoch_time_mean",
            "epoch_time_std",
            "cell_time_mean",
            "cell_time_std",
        ],
        rows=rows,
        notes=notes,
    )


def aggregate_sweep(sweep: SweepResult) -> ExperimentOutput:
    """Mean +- std summary per (algorithm, scenario) across seeds.

    Every summarized metric carries a variance band (its across-seed
    sample standard deviation, ``ddof=1``, in the ``*_std`` column right
    after its mean), so figure sweeps expose seed spread rather than just
    point estimates. The
    aggregation is order-independent within each group (results arrive in
    grid order regardless of execution backend), so parallel, sequential,
    queue-brokered, and cache-served sweeps aggregate to identical numbers
    -- except the trailing ``cell_time_*`` telemetry columns, which report
    the measured wall clock of each group's freshly executed cells (NaN
    when every cell came from cache).
    """
    return aggregate_outcomes(
        sweep.spec,
        sweep.outcomes,
        notes=(
            f"{sweep.cells_executed} cell(s) executed, "
            f"{sweep.cells_from_cache} from cache, "
            f"{sweep.wall_time_s:.1f}s wall time "
            f"({sweep.backend} backend)."
        ),
    )

"""Declarative experiment sweeps: grids of (algorithm x seed x scenario).

One comparison runs a handful of trainers; credible comparisons across many
seeds, topologies, and network regimes need orders of magnitude more. This
module provides the scale-out layer, and every figure and table of the
paper (:mod:`repro.experiments.paper`) is declared in its spec types:

- :class:`SweepSpec` describes a grid declaratively (plain strings and
  numbers, so every cell is hashable and picklable);
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
    InlineExecutor,
    ProcessExecutor,
    ResultCache,
    SweepExecutor,
)
from repro.experiments.reporting import mean_std
from repro.graph.topology import RANDOMIZED_TOPOLOGY_KINDS
from repro.experiments.scenarios import (
    Scenario,
    Workload,
    build_scenario,
    check_partition,
    get_scenario_family,
    make_workload,
    scenario_names,
)
from repro.ml.optim import ConstantLR, LRSchedule, PlateauDecayLR, StepDecayLR
from repro.network.costmodel import MODEL_ZOO
from repro.simulation.records import TrainingResult

__all__ = [
    "CACHE_VERSION",
    "SCENARIO_KINDS",
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


def _scenario_kinds() -> tuple[str, ...]:
    return tuple(scenario_names())


# Backed by the scenario registry (repro.experiments.scenarios); evaluated at
# import time for CLI choices -- families registered later are still valid in
# ScenarioSpec, which consults the registry directly.
SCENARIO_KINDS = _scenario_kinds()


# -- declarative grid specs ----------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """Names a scenario family buildable from ``(kind, num_workers, seed)``
    plus declarative parameter overrides.

    ``params`` is a tuple of ``(name, value)`` pairs resolved against the
    family's registered schema; values are coerced to the schema's types,
    overrides equal to the schema default are dropped, and the tuple is
    key-sorted at construction -- so two spellings of the same cell
    (including spelling out a default) hash to the same cache key. Per-cell
    scenario grids are just lists of ScenarioSpecs differing only in
    ``params``.
    """

    kind: str = "heterogeneous"
    num_workers: int = 8
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        # Fail at spec construction, not cell execution: a grid that cannot
        # run should never survive a dry run. merge_and_validate also runs
        # the family's spec-time validator (e.g. trace-file path checks) and,
        # given the worker count, the topology-axis feasibility checks.
        family = get_scenario_family(self.kind)
        family.validate_workers(self.num_workers)
        coerced = family.coerce_params(dict(self.params))
        merged = family.merge_and_validate(coerced, self.num_workers)
        # Canonical form: an override spelled at its default value builds the
        # identical scenario, so it must hash (and label) identically too.
        # Likewise edge_probability is inert unless the topology is one of
        # the randomized kinds -- a ring cell spelled with any
        # edge_probability is the same ring cell -- and the edge-failure
        # shape parameters are inert while edge_failures is 0 (the graph
        # stays frozen, so any spelled-out downtime/horizon builds the
        # identical scenario). compression_param is inert while the op is
        # "none" (and compression="none" itself is the default, dropped
        # below): a cell spelled with the identity op is the same cell as
        # one that never mentioned compression.
        if merged.get("topology") not in RANDOMIZED_TOPOLOGY_KINDS:
            coerced.pop("edge_probability", None)
        if not merged.get("edge_failures"):
            coerced.pop("edge_downtime_s", None)
            coerced.pop("edge_horizon_s", None)
        if merged.get("compression", "none") == "none":
            coerced.pop("compression_param", None)
        coerced = {
            key: value for key, value in coerced.items()
            if value != family.param(key).default
        }
        object.__setattr__(
            self, "params", tuple(sorted(coerced.items()))
        )

    def has_dynamic_edges(self) -> bool:
        """Whether built scenarios carry a time-varying topology.

        After canonicalization ``edge_failures`` (the seeded random process)
        and ``edge_events`` (a deterministic script) survive in ``params``
        iff they are non-zero/non-empty, so this is a pure spec-level query
        (no build)."""
        return any(
            key in ("edge_failures", "edge_events") and value
            for key, value in self.params
        )

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
        # is knowable without a worker count: a workload that cannot be
        # built should never survive a dry run.
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
        check_partition(self.partition, self.segments_per_worker, self.lost_labels)

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
        """Canonical JSON-able description (the cache-key payload)."""
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

    def cache_key(self) -> str:
        payload = json.dumps(self.describe(), sort_keys=True, default=str)
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

    def estimated_cost(self) -> int:
        """Relative expected runtime (the queue broker's priority key).

        A scheduling hint only: it orders claims (slowest-expected cells
        first, so no straggler starts last) and never touches results --
        determinism is per-cell, independent of execution order.
        """
        from repro.experiments.harness import estimate_cell_cost

        return estimate_cell_cost(
            self.algorithm,
            num_workers=self.scenario.num_workers,
            max_sim_time=self.run.max_sim_time,
            num_samples=self.workload.num_samples,
        )


@dataclass(frozen=True)
class SweepSpec:
    """The declarative grid: algorithms x seeds x scenarios."""

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
        # Fail at spec construction, not cell execution: a churn scenario
        # paired with a churn-incapable algorithm can never run, so it must
        # never survive a dry run either.
        churn_kinds = sorted({
            spec.kind for spec in self.scenarios
            if get_scenario_family(spec.kind).has_churn
        })
        if churn_kinds:
            from repro.algorithms.registry import TRAINER_REGISTRY

            incapable = sorted({
                name for name in self.algorithms
                if name.lower() in TRAINER_REGISTRY
                and not TRAINER_REGISTRY[name.lower()].supports_churn
            })
            if incapable:
                raise ValueError(
                    f"algorithm(s) {incapable} do not support churn and "
                    f"cannot run scenario(s) {churn_kinds}"
                )
        # Same preflight for the time-varying topology axis: an edge_failures
        # cell paired with a trainer that has no per-edge gossip semantics
        # (the synchronous baselines) can never run.
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

    def result_for(self, cell: SweepCell) -> TrainingResult:
        for outcome in self.outcomes:
            if outcome.cell == cell:
                return outcome.result
        raise KeyError(f"cell {cell.label()} not part of this sweep")

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
            :class:`SweepProgress` as finished cells land (one snapshot per
            newly finished cell, backend permitting) and exactly once more
            with ``done=True`` and the final outcomes, before this function
            returns. Purely observational -- results and their order are
            unaffected.
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
        # the queue broker's workers (and its coordinator wait loop) treat
        # an existing result file as "cell done", so forcing through that
        # backend would otherwise serve the old results as fresh ones.
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

    if stream is not None and pending:
        def on_cell(position: int, execution) -> None:
            index = pending[position]
            outcomes[index] = CellOutcome(
                cells[index],
                execution.result,
                False,
                execution.runtime_s,
                attempts=execution.attempts,
                worker=execution.worker,
            )
            stream(snapshot())

        executor.set_result_listener(on_cell)
    try:
        executed = executor.run([cells[i] for i in pending], cache_dir)
    finally:
        if stream is not None and pending:
            executor.set_result_listener(None)
    for index, execution in zip(pending, executed):
        outcomes[index] = CellOutcome(
            cells[index],
            execution.result,
            False,
            execution.runtime_s,
            attempts=execution.attempts,
            worker=execution.worker,
        )

    result = SweepResult(
        spec,
        outcomes,
        wall_time_s=time.perf_counter() - start,
        backend=executor.name,
    )
    if stream is not None:
        # The final snapshot is built from the assembled result, not the
        # stream's own accumulation: the streamed end state is the batch
        # state, bit for bit (including telemetry a mid-drain peek may have
        # observed before the worker finished writing it).
        stream(SweepProgress(
            spec=spec,
            outcomes=list(result.outcomes),
            completed=len(result.outcomes),
            total=len(result.outcomes),
            backend=result.backend,
            done=True,
        ))
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

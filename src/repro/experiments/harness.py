"""Run algorithms on (scenario, workload) pairs and compare the outcomes.

The central entry points:

- :func:`run_trainer` -- one algorithm, one scenario, one workload;
- :func:`run_comparison` -- several algorithms, one after another, each on
  a fresh copy of the same problem (new model clones at the same ``x^0``,
  samplers on the same ``[seed, 0, i]`` streams);
- :func:`time_to_loss_speedups` -- the paper's headline metric: the ratio
  of times at which each algorithm first reaches a target training loss.

Every run is a pure function of its (scenario, workload, config, seed)
inputs. Grids of runs -- many seeds, processes, a result cache -- are
:mod:`repro.experiments.sweeps`' job, which builds each cell through
:func:`build_trainer`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.algorithms.base import TrainerConfig
from repro.algorithms.registry import create_trainer
from repro.experiments.scenarios import Scenario, Workload
from repro.simulation.records import TrainingResult

__all__ = [
    "build_trainer",
    "run_trainer",
    "run_comparison",
    "time_to_loss_speedups",
]

def build_trainer(
    algorithm: str,
    scenario: Scenario,
    workload: Workload,
    config: TrainerConfig,
    **trainer_kwargs,
):
    """Construct (but do not run) a trainer on a (scenario, workload) pair.

    The construction half of :func:`run_trainer`, exposed separately so
    execution backends that drive trainers through an external stepper
    (the batched sweep backend) build them through exactly the same path
    -- fresh tasks, churn injection, registry dispatch -- as the inline
    one.
    """
    if scenario.num_workers != workload.num_workers:
        raise ValueError(
            f"scenario has {scenario.num_workers} workers but workload has "
            f"{workload.num_workers}"
        )
    if scenario.churn is not None and "churn" not in trainer_kwargs:
        trainer_kwargs["churn"] = scenario.churn
    if scenario.compression is not None and "compression" not in trainer_kwargs:
        trainer_kwargs["compression"] = scenario.compression
    tasks = workload.make_tasks()
    return create_trainer(
        algorithm,
        tasks,
        scenario.topology,
        scenario.links,
        workload.profile,
        config,
        test_data=workload.test_data,
        **trainer_kwargs,
    )


def run_trainer(
    algorithm: str,
    scenario: Scenario,
    workload: Workload,
    config: TrainerConfig,
    **trainer_kwargs,
) -> TrainingResult:
    """Train once and return the result.

    ``trainer_kwargs`` are forwarded to the trainer constructor (e.g.
    ``adaptive=False`` for the NetMax ablation, ``overlap=False`` for the
    serialized gossip loop).
    """
    return build_trainer(
        algorithm, scenario, workload, config, **trainer_kwargs
    ).run()


def run_comparison(
    algorithms: Sequence[str],
    scenario: Scenario,
    workload: Workload,
    config: TrainerConfig,
    trainer_kwargs: dict[str, dict] | None = None,
) -> dict[str, TrainingResult]:
    """:func:`run_trainer` for each algorithm, on the same problem.

    Every run builds fresh tasks from ``workload``, so ``results[name]`` is
    bit-identical to ``run_trainer(name, ...)`` alone (and to a sweep cell
    whose specs build the same scenario, workload and config).

    Args:
        algorithms: registry names, e.g. ``["netmax", "adpsgd"]``.
        trainer_kwargs: optional per-algorithm constructor extras, keyed by
            registry name.

    Returns:
        ``{name: TrainingResult}`` in input order.
    """
    trainer_kwargs = trainer_kwargs or {}
    return {
        name: run_trainer(
            name, scenario, workload, config, **trainer_kwargs.get(name, {})
        )
        for name in algorithms
    }


def time_to_loss_speedups(
    results: dict[str, TrainingResult],
    reference: str,
    target_loss: float | None = None,
) -> dict[str, float]:
    """Speedup of every algorithm over ``reference`` at a common loss target.

    If ``target_loss`` is omitted, the target is the *worst* final loss over
    all runs (the deepest level everyone reached), which mirrors how the
    paper compares time-to-convergence across methods.

    Speedup > 1 means "faster than the reference"; ``inf`` appears when the
    reference never reached the target but the algorithm did, and ``nan``
    when the algorithm itself never reached it.
    """
    if reference not in results:
        raise KeyError(f"reference {reference!r} not among results {sorted(results)}")
    if target_loss is None:
        target_loss = max(r.history.final_loss() for r in results.values())
    reference_time = results[reference].history.time_to_loss(target_loss)
    speedups: dict[str, float] = {}
    for name, result in results.items():
        own_time = result.history.time_to_loss(target_loss)
        if np.isinf(own_time):
            speedups[name] = float("nan")
        elif np.isinf(reference_time):
            speedups[name] = float("inf")
        else:
            speedups[name] = reference_time / own_time if own_time > 0 else float("inf")
    return speedups

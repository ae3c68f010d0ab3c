"""Run algorithms on (scenario, workload) pairs and compare the outcomes.

The central entry points:

- :func:`run_trainer` -- one algorithm, one scenario, one workload;
- :func:`run_comparison` -- several algorithms, one after another, on
  identical copies of the same problem (fresh model clones + reseeded
  samplers per run, so runs are independent but start from the same
  ``x^0``);
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
    "estimate_cell_cost",
    "run_trainer",
    "run_comparison",
    "time_to_loss_speedups",
]

# Rough relative per-event cost of each trainer, for scheduling only, keyed
# by registry name (any other trainer weighs 1.0, the gossip path).
# Synchronous baselines pay a barrier per round; netmax's monitor adds
# Algorithm 3 bookkeeping on top of the gossip path. The absolute scale is
# arbitrary -- only the ordering of estimates matters.
_RELATIVE_ALGORITHM_COST = {
    "allreduce": 1.5,
    "ps-syn": 1.5,
    "ps-asyn": 1.5,
    "adpsgd": 1.0,
    "netmax": 2.0,
}


def estimate_cell_cost(
    algorithm: str,
    *,
    num_workers: int,
    max_sim_time: float,
    num_samples: int | None = None,
) -> int:
    """Relative expected wall-clock of one sweep cell (a scheduling key).

    Event volume scales with ``num_workers * max_sim_time``; per-event
    model math scales weakly with the data size; algorithms carry a fixed
    relative weight. Deliberately coarse -- the queue broker only needs a
    *ranking* (start the slowest cells first so none becomes the lone
    drain-tail straggler), and a misranked cell costs latency, never
    correctness: results are a pure function of the cell spec.
    """
    weight = _RELATIVE_ALGORITHM_COST.get(algorithm.lower(), 1.0)
    data_scale = 1.0 + (num_samples or 0) / 2048.0
    return int(weight * data_scale * max(0.0, max_sim_time) * num_workers)


def build_trainer(
    algorithm: str,
    scenario: Scenario,
    workload: Workload,
    config: TrainerConfig,
    seed_offset: int = 0,
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
    tasks = workload.make_tasks(seed_offset=seed_offset)
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
    seed_offset: int = 0,
    **trainer_kwargs,
) -> TrainingResult:
    """Train once and return the result.

    ``trainer_kwargs`` are forwarded to the trainer constructor (e.g.
    ``adaptive=False`` for the NetMax ablation, ``group_size=2`` for
    Prague).
    """
    trainer = build_trainer(
        algorithm,
        scenario,
        workload,
        config,
        seed_offset=seed_offset,
        **trainer_kwargs,
    )
    return trainer.run()


def run_comparison(
    algorithms: Sequence[str],
    scenario: Scenario,
    workload: Workload,
    config: TrainerConfig,
    trainer_kwargs: dict[str, dict] | None = None,
) -> dict[str, TrainingResult]:
    """Run each algorithm on an identical copy of the problem.

    The k-th algorithm draws its mini-batches from sampler streams
    ``[seed, k, i]``, so the runs are independent.

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
            name, scenario, workload, config, seed_offset=offset,
            **trainer_kwargs.get(name, {}),
        )
        for offset, name in enumerate(algorithms)
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

"""A trainer is freed by reference counting alone, run or not.

A sweep runs dozens of trainers one after another in one process. Were a
trainer part of a reference cycle -- a task pointing back at it, or an event
left in its simulator's queue holding one of its bound methods -- every
finished run would stay in memory until Python's next full cyclic
collection. With the cyclic collector off, each test here checks that a weak
reference to the trainer is dead once the last strong reference goes, and
that ``gc.collect()`` then finds nothing.
"""

import gc
import weakref

import pytest

from repro.algorithms.base import TrainerConfig
from repro.algorithms.registry import TRAINER_REGISTRY, create_trainer, trainer_names
from repro.experiments.scenarios import heterogeneous_scenario, make_quadratic_workload
from repro.experiments.sweeps import (
    RunSpec,
    ScenarioSpec,
    SweepCell,
    SweepSpec,
    WorkloadSpec,
    run_sweep,
)
from repro.simulation.batched import BatchedSimulator

WORKLOAD = WorkloadSpec(num_samples=128, batch_size=16)
RUN = RunSpec(20.0)

# Each scenario kind a trainer's run holds extra state or events for.
SCENARIOS = {
    "static": ScenarioSpec("heterogeneous", 4),
    "churn": ScenarioSpec("churn", 4),
    "edge-failures": ScenarioSpec("heterogeneous", 4, (("edge_failures", 2),)),
    "topk": ScenarioSpec("heterogeneous", 4, (("compression", "topk"),)),
}

CELLS = [
    pytest.param(SweepCell(name, 0, scenario, WORKLOAD, RUN), id=f"{name}-{kind}")
    for kind, scenario in SCENARIOS.items()
    for name in trainer_names()
    # Only the gossip trainers run over a time-varying edge set.
    if not scenario.has_dynamic_edges() or TRAINER_REGISTRY[name].supports_dynamic_edges
]


@pytest.fixture
def refcount_only():
    """The cyclic collector off for the test, and no garbage left over."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def built_trainers(monkeypatch):
    """A weak reference to every trainer ``SweepCell.build_trainer`` makes."""
    refs = []
    build = SweepCell.build_trainer

    def recording(cell):
        trainer = build(cell)
        refs.append(weakref.ref(trainer))
        return trainer

    monkeypatch.setattr(SweepCell, "build_trainer", recording)
    return refs


def assert_freed(refs):
    assert refs
    assert all(ref() is None for ref in refs), "a trainer outlived its last reference"
    assert gc.collect() == 0


def quadratic_trainer(seed):
    """A cell the batched engine vectorizes (its fast regime)."""
    scenario = heterogeneous_scenario(num_workers=4, seed=seed)
    tasks, _, profile = make_quadratic_workload(num_workers=4, seed=seed)
    config = TrainerConfig(
        max_sim_time=20.0, eval_interval_s=5.0, seed=seed, iterations_per_epoch_hint=20
    )
    return create_trainer(
        "adpsgd", tasks, scenario.topology, scenario.links, profile, config
    )


@pytest.mark.parametrize("cell", CELLS)
def test_run_trainer_is_freed(refcount_only, cell):
    cell.execute()  # first-use imports and caches, outside the measurement
    gc.collect()
    trainer = cell.build_trainer()
    result = trainer.run()
    ref = weakref.ref(trainer)
    del trainer
    assert_freed([ref])
    assert result.global_steps > 0  # the result outlives its trainer


def test_never_run_trainer_is_freed(refcount_only):
    ref = weakref.ref(SweepCell("netmax", 0, SCENARIOS["static"], WORKLOAD, RUN)
                      .build_trainer())
    assert_freed([ref])


def test_executed_cell_frees_its_trainer(refcount_only, built_trainers):
    SweepCell("netmax", 0, SCENARIOS["churn"], WORKLOAD, RUN).execute()
    assert_freed(built_trainers)


def test_inline_sweep_frees_every_trainer(refcount_only, built_trainers):
    spec = SweepSpec(
        ("adpsgd", "netmax"), (0, 1), (SCENARIOS["static"],), WORKLOAD, RUN
    )
    result = run_sweep(spec)
    assert len(built_trainers) == len(result.outcomes) == 4
    assert_freed(built_trainers)


def test_batched_engine_frees_both_regimes(refcount_only):
    """Lockstep (quadratic) cells and a per-event (MLP) cell in one engine:
    every trainer goes with the engine."""
    trainers = [quadratic_trainer(seed) for seed in range(3)]
    trainers.append(
        SweepCell("adpsgd", 0, SCENARIOS["static"], WORKLOAD, RUN).build_trainer()
    )
    refs = [weakref.ref(trainer) for trainer in trainers]
    engine = BatchedSimulator(trainers)
    del trainers
    results = engine.run()
    assert len(results) == 4
    del engine
    assert_freed(refs)

"""A sweep cell's one serialized form: its ``describe()`` JSON.

The JSON is both the cache-key payload and the queue's task file, so it must
rebuild the identical cell -- with the identical key -- through
``SweepCell.from_describe``. Checked over the dry-run contract's generated
grids, every spelling of the scenario canonical-form golden and every paper
cell; a value JSON cannot carry exactly fails when the ``SweepSpec`` is
built.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.experiments.paper import PAPER_EXPERIMENTS
from repro.experiments.sweeps import (
    RunSpec,
    ScenarioSpec,
    SweepCell,
    SweepSpec,
    WorkloadSpec,
)
from test_dry_run_contract import RUN, WORKLOAD, grids

SPELLINGS = json.loads(
    (Path(__file__).parents[1] / "experiments" / "scenario_spec_golden.json")
    .read_text()
)


def assert_round_trips(cell):
    rebuilt = SweepCell.from_describe(json.loads(json.dumps(cell.describe())))
    assert rebuilt == cell, cell.label()
    assert rebuilt.cache_key() == cell.cache_key(), cell.label()


@settings(max_examples=100, deadline=None)
@given(grids())
def test_generated_cells_round_trip(grid):
    family, workers, params, seeds, _ = grid
    try:
        spec = SweepSpec(
            algorithms=("adpsgd", "netmax"),
            seeds=seeds,
            scenarios=(ScenarioSpec(family, workers, tuple(params.items())),),
            workload=WORKLOAD,
            run=RUN,
            trainer_kwargs=(("netmax", (("monitor_period_s", 0.25),
                                        ("adaptive", False))),),
        )
    except ValueError:
        return
    for cell in spec.cells():
        assert_round_trips(cell)


def test_every_golden_spelling_round_trips():
    assert len(SPELLINGS) == 144
    for entry in SPELLINGS:
        spelling = tuple(tuple(pair) for pair in entry["spelling"])
        scenario = ScenarioSpec(entry["kind"], entry["num_workers"], spelling)
        cell = SweepCell("adpsgd", 0, scenario, WorkloadSpec(), RunSpec())
        assert_round_trips(cell)
        assert cell.cache_key() == entry["cache_key"]


@pytest.mark.parametrize("experiment_id", list(PAPER_EXPERIMENTS))
def test_every_paper_cell_round_trips(experiment_id):
    experiment = PAPER_EXPERIMENTS[experiment_id]
    for _, spec in experiment.grids(0, **experiment.scale):
        for cell in spec.cells():
            assert_round_trips(cell)


def test_another_cache_version_does_not_rebuild():
    (cell,) = SweepSpec(("adpsgd",), (0,), workload=WORKLOAD, run=RUN).cells()
    stale = dict(cell.describe(), cache_version=5)
    with pytest.raises(ValueError, match="cache_version 5"):
        SweepCell.from_describe(stale)


@pytest.mark.parametrize("overrides", [
    {"seeds": (np.int64(3),)},
    {"trainer_kwargs": (("adpsgd", (("weights", np.ones(3)),)),)},
], ids=["np-int64-seed", "ndarray-trainer-kwarg"])
def test_a_value_json_cannot_carry_fails_at_spec_time(overrides):
    grid = {"algorithms": ("adpsgd",), "seeds": (0,), "workload": WORKLOAD,
            "run": RUN, **overrides}
    with pytest.raises(ValueError, match="not JSON serializable"):
        SweepSpec(**grid)

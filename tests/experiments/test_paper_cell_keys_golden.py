"""Golden table of every paper cell's cache key.

Each ``PAPER_EXPERIMENTS`` grid at seed 0 and its declared default scale
lists its cells in grid order, each pinned to its ``label()`` and
``cache_key()``. A change to the cell's serialized form, the scenario
canonical form or a declaration's defaults moves an entry and fails here,
so "no key moved" is checked rather than counted.

Regenerate (only for an intended key change, which also needs a
``CACHE_VERSION`` bump) with::

    PYTHONPATH=src python -c "import tests.experiments.test_paper_cell_keys_golden as g; g.regenerate()"
"""

import json
from pathlib import Path

import pytest

from repro.experiments.paper import PAPER_EXPERIMENTS

GOLDEN_PATH = Path(__file__).with_name("paper_cell_keys_golden.json")


def paper_cells(experiment_id):
    """The cells of one experiment's grids, at seed 0 and default scale."""
    experiment = PAPER_EXPERIMENTS[experiment_id]
    return [
        cell
        for _, spec in experiment.grids(0, **experiment.scale)
        for cell in spec.cells()
    ]


def _entries(experiment_id):
    return [
        {"experiment": experiment_id, "label": cell.label(),
         "cache_key": cell.cache_key()}
        for cell in paper_cells(experiment_id)
    ]


def regenerate() -> None:
    lines = ",\n".join(
        json.dumps(entry)
        for experiment_id in PAPER_EXPERIMENTS
        for entry in _entries(experiment_id)
    )
    GOLDEN_PATH.write_text(f"[\n{lines}\n]\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_experiment():
    assert list(dict.fromkeys(entry["experiment"] for entry in GOLDEN)) == list(
        PAPER_EXPERIMENTS
    )
    assert len(GOLDEN) == 281


@pytest.mark.parametrize("experiment_id", list(PAPER_EXPERIMENTS))
def test_paper_cell_keys_are_pinned(experiment_id):
    golden = [entry for entry in GOLDEN if entry["experiment"] == experiment_id]
    assert _entries(experiment_id) == golden

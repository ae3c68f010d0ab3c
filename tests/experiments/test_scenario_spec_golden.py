"""Golden table for the canonical form of scenario specs.

Every spelling below -- each registry family but ``trace-file`` (which
needs a file on disk), crossed with the shared topology, edge-failure
and compression axes, defaults and inert values included --
maps to a pinned canonical ``params`` tuple, ``label()`` and
``SweepCell.cache_key()``. A change to coercion, the inert-parameter rules
or the cache-key payload moves an entry and fails here; a change that only
moves where a check lives does not.

Regenerate (only for an intended canonical-form change, which also needs a
``CACHE_VERSION`` bump) with::

    PYTHONPATH=src python -c "import tests.experiments.test_scenario_spec_golden as g; g.regenerate()"
"""

import json
from pathlib import Path

import pytest

from repro.experiments.sweeps import RunSpec, ScenarioSpec, SweepCell, WorkloadSpec

GOLDEN_PATH = Path(__file__).with_name("scenario_spec_golden.json")

FAMILIES = (
    ("homogeneous", 8),
    ("heterogeneous", 8),
    ("heterogeneous-static", 8),
    ("multi-cloud", 6),
    ("trace-diurnal", 8),
    ("trace-random-walk", 8),
    ("trace-burst", 8),
    ("churn", 8),
)

AXIS_SPELLINGS = (
    (),
    (("topology", "full"), ("edge_probability", 0.9)),
    (("topology", "ring"), ("edge_probability", "0.6")),
    (("topology", "star"),),
    (("topology", "random"), ("edge_probability", "0.5")),
    (("topology", "expander"),),
    (("edge_failures", 0), ("edge_downtime_s", 5.0), ("edge_horizon_s", "50")),
    (("edge_failures", "2"), ("edge_downtime_s", 5.0), ("edge_horizon_s", 100.0)),
    (("compression", "none"), ("compression_param", 0.5)),
    (("compression", "topk"), ("compression_param", "0.1")),
    (("topology", "ring"), ("edge_failures", 1), ("compression", "qsgd"),
     ("compression_param", 4)),
    (("topology", "random"),),
    (("topology", "expander"), ("edge_probability", "0.5"), ("compression", "qsgd"),
     ("compression_param", 8)),
    (("topology", "star"), ("edge_failures", 0), ("compression", "topk"),
     ("compression_param", "0.25")),
    (("topology", "expander"), ("edge_failures", 2), ("edge_downtime_s", "10"),
     ("edge_horizon_s", 200.0)),
    (("topology", "ring"), ("edge_failures", "1"), ("edge_downtime_s", 2.5)),
    (("compression", "qsgd"),),
    (("topology", "full"), ("compression", "topk")),
)


def _entry(kind, num_workers, spelling):
    spec = ScenarioSpec(kind, num_workers, params=spelling)
    cell = SweepCell("adpsgd", 0, spec, WorkloadSpec(), RunSpec())
    return {
        "kind": kind,
        "num_workers": num_workers,
        "spelling": [list(pair) for pair in spelling],
        "params": [list(pair) for pair in spec.params],
        "label": spec.label(),
        "cache_key": cell.cache_key(),
    }


def _cases():
    return [
        (kind, num_workers, spelling)
        for kind, num_workers in FAMILIES
        for spelling in AXIS_SPELLINGS
    ]


def regenerate() -> None:
    lines = ",\n".join(json.dumps(_entry(*case)) for case in _cases())
    GOLDEN_PATH.write_text(f"[\n{lines}\n]\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_spelling():
    assert [
        (entry["kind"], entry["num_workers"],
         tuple(tuple(pair) for pair in entry["spelling"]))
        for entry in GOLDEN
    ] == _cases()


@pytest.mark.parametrize(
    "golden", GOLDEN, ids=lambda entry: f"{entry['kind']}:{entry['label']}"
)
def test_canonical_form_is_pinned(golden):
    spelling = tuple(tuple(pair) for pair in golden["spelling"])
    assert _entry(golden["kind"], golden["num_workers"], spelling) == golden

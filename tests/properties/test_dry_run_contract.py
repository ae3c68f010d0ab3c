"""The dry-run contract over generated scenario grids.

``SweepSpec`` construction builds every (scenario, seed) of its grid, so a
spec either raises ``ValueError`` there -- which ``repro sweep --dry-run``
reports as one ``error:`` line -- or its cells run. Generated over family x
topology x the edge-failure axis x compression x worker count x seeds.
"""

from hypothesis import example, given, settings, strategies as st

from repro.experiments.scenarios import scenario_names
from repro.experiments.sweeps import RunSpec, ScenarioSpec, SweepSpec, WorkloadSpec
from repro.graph.topology import TOPOLOGY_KINDS

FAMILIES = tuple(scenario_names())

WORKLOAD = WorkloadSpec(num_samples=64)
RUN = RunSpec(max_sim_time=0.5, eval_interval_s=0.5, eval_max_samples=16)


@st.composite
def grids(draw):
    params = {
        "topology": draw(st.sampled_from(TOPOLOGY_KINDS)),
        "edge_probability": draw(st.sampled_from((0.05, 0.25, 0.6))),
    }
    if draw(st.sampled_from((False, True, True))):
        params["edge_failures"] = draw(st.integers(-1, 3))
        params["edge_horizon_s"] = draw(st.sampled_from((0.4, 600.0)))
        params["edge_downtime_s"] = draw(st.sampled_from((0.1, 30.0)))
    params["compression"], params["compression_param"] = draw(st.sampled_from((
        ("none", 0.0), ("none", 2.5), ("topk", 0.1), ("topk", 2.5),
        ("qsgd", 4.0), ("qsgd", 2.5), ("gzip", 0.0),
    )))
    seeds = draw(st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
    return (
        draw(st.sampled_from(FAMILIES)),
        draw(st.sampled_from((4, 6, 8))),
        params,
        tuple(seeds),
        draw(st.integers(0, len(seeds) - 1)),
    )


@settings(max_examples=100, deadline=None)
@given(grids())
# A 6-worker random graph at edge probability 0.05 is a tree at seed 0: no
# edge can fail without disconnecting it.
@example(("heterogeneous", 6,
          {"topology": "random", "edge_probability": 0.05, "edge_failures": 1},
          (0, 1, 2, 3, 4, 5), 0))
def test_a_spec_that_constructs_runs(grid):
    family, workers, params, seeds, index = grid
    try:
        spec = SweepSpec(
            algorithms=("adpsgd",),
            seeds=seeds,
            scenarios=(ScenarioSpec(family, workers, tuple(params.items())),),
            workload=WORKLOAD,
            run=RUN,
        )
    except ValueError:
        return
    result = spec.cells()[index].execute()
    assert result.history.as_arrays()["epoch"].size > 0

"""Golden regression layer: tiny fixed-seed runs pinned to exact outcomes.

The determinism tests (``test_determinism.py``) assert a run equals a rerun
*within one code version*; they cannot notice when a refactor silently
shifts an RNG stream or reorders simulator events -- both reruns drift
together. These tests pin the *absolute* numbers of a tiny run per
algorithm, so any change to trainer numerics, stream layout, or event
ordering fails loudly and has to be acknowledged by regenerating the
constants below (and bumping the sweep engine's CACHE_VERSION, which such a
change almost always requires).

Iteration counts and history lengths are exact (they are event-ordering
facts); losses use a tight relative tolerance that forgives last-ulp BLAS
differences across machines but not stream drift (any RNG change moves the
loss by orders of magnitude more than 1e-5).

Regenerate with::

    PYTHONPATH=src python -c "import tests.integration.test_golden_regression as g; g.regenerate()"
"""

import numpy as np
import pytest

from repro.algorithms.base import TrainerConfig
from repro.algorithms.registry import trainer_names
from repro.experiments.harness import run_trainer
from repro.experiments.scenarios import build_scenario, make_workload

LOSS_RTOL = 1e-5

# algorithm -> (final_loss, global_steps, history_length)
# Regenerated for CACHE_VERSION 5: model init moved to the named
# [seed, _MODEL_INIT_STREAM] stream (iteration counts unchanged -- only the
# initial parameters shifted, never the event ordering).
GOLDEN_HETEROGENEOUS = {
    "adpsgd": (0.0005029232409516229, 249, 3),
    "adpsgd-monitor": (0.002111469965950815, 238, 3),
    "allreduce": (0.000638512198388245, 180, 3),
    "netmax": (0.0014027396847769882, 238, 3),
    "prague": (0.0009968320159676664, 151, 3),
    "ps-asyn": (0.05429231332078401, 181, 3),
    "ps-syn": (0.0010909298863902355, 140, 3),
    "saps": (0.0007540450163826507, 632, 3),
}

GOLDEN_RING = {
    "adpsgd": (0.0004371251482318499, 328, 3),
    "netmax": (0.0012151540702024877, 314, 3),
    "saps": (0.0003100645392610208, 629, 3),
}

GOLDEN_CHURN = {
    "adpsgd": (0.0006650173538089901, 236, 3),
    "netmax": (0.0015435015976180595, 210, 3),
    "allreduce": (0.0005460230229684824, 170, 3),
    "prague": (0.0010277140579541624, 152, 3),
    "ps-syn": (0.0009170962224481592, 129, 3),
    "ps-asyn": (0.1375099393397236, 167, 3),
}

# The time-varying topology subsystem (edge fail/repair on a ring): pins the
# edge-flip event ordering, the [seed, _EDGE_FLIP_STREAM] schedule stream,
# and -- for the monitor-driven trainers -- the flip-triggered re-solve path
# through the quantized policy cache. The netmax entry was regenerated for
# CACHE_VERSION 6 (closed-form Algorithm-3 LP; it moved in the last digits).
GOLDEN_EDGE_FAILURES = {
    "adpsgd": (0.0005023846464405539, 440, 3),
    "adpsgd-monitor": (0.0007387127981043338, 625, 3),
    "netmax": (0.0007615917956034148, 625, 3),
    "saps": (0.00019061864292507959, 849, 3),
}


def _workload():
    return make_workload(
        "mobilenet", "mnist", num_workers=4, batch_size=32, num_samples=256,
        seed=0,
    )


def _config():
    return TrainerConfig(max_sim_time=10.0, eval_interval_s=5.0, seed=0)


def _scenarios():
    return {
        "heterogeneous": (
            build_scenario("heterogeneous", 4, seed=0), GOLDEN_HETEROGENEOUS
        ),
        "ring": (
            build_scenario("heterogeneous", 4, seed=0, topology="ring"),
            GOLDEN_RING,
        ),
        "churn": (
            build_scenario("churn", 4, seed=0, horizon_s=10.0, downtime_s=3.0,
                           num_departures=1),
            GOLDEN_CHURN,
        ),
        "edge-failures": (
            build_scenario("heterogeneous", 4, seed=0, topology="ring",
                           edge_failures=2, edge_horizon_s=10.0,
                           edge_downtime_s=2.0),
            GOLDEN_EDGE_FAILURES,
        ),
    }


def _check(result, golden, label):
    loss, steps, history_len = golden
    assert result.global_steps == steps, (
        f"{label}: iteration count drifted {steps} -> {result.global_steps} "
        "(RNG-stream or event-ordering change; regenerate the goldens AND "
        "bump CACHE_VERSION if intentional)"
    )
    assert len(result.history.times) == history_len, label
    assert result.history.final_loss() == pytest.approx(loss, rel=LOSS_RTOL), (
        f"{label}: final loss drifted {loss} -> {result.history.final_loss()}"
    )
    assert np.all(np.isfinite(result.final_params)), label


def test_golden_covers_every_algorithm():
    """A new registry algorithm must get a golden pin before it ships."""
    assert set(GOLDEN_HETEROGENEOUS) == set(trainer_names())


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_HETEROGENEOUS))
def test_golden_heterogeneous(algorithm):
    scenario, golden = _scenarios()["heterogeneous"]
    result = run_trainer(algorithm, scenario, _workload(), _config())
    _check(result, golden[algorithm], f"{algorithm}/heterogeneous")


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_RING))
def test_golden_ring_topology(algorithm):
    scenario, golden = _scenarios()["ring"]
    result = run_trainer(algorithm, scenario, _workload(), _config())
    _check(result, golden[algorithm], f"{algorithm}/ring")


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_CHURN))
def test_golden_churn(algorithm):
    scenario, golden = _scenarios()["churn"]
    result = run_trainer(algorithm, scenario, _workload(), _config())
    _check(result, golden[algorithm], f"{algorithm}/churn")


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_EDGE_FAILURES))
def test_golden_edge_failures(algorithm):
    scenario, golden = _scenarios()["edge-failures"]
    result = run_trainer(algorithm, scenario, _workload(), _config())
    _check(result, golden[algorithm], f"{algorithm}/edge-failures")


def regenerate():  # pragma: no cover - maintenance helper
    """Print fresh golden dicts (run after an intentional numerics change)."""
    for name, (scenario, golden) in _scenarios().items():
        print(f"# {name}")
        for algorithm in sorted(golden):
            r = run_trainer(algorithm, scenario, _workload(), _config())
            print(f'    "{algorithm}": ({r.history.final_loss()!r}, '
                  f'{r.global_steps}, {len(r.history.times)}),')

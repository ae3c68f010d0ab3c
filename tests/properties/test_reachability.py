"""Property suite (hypothesis): one answer to "whom can worker i reach now".

Gossip trainers learn liveness from :meth:`DecentralizedTrainer.reachable`
(peer active *and* edge live) and its row form ``reachable_peers``; the
trainer keeps the live edge set as one frozen CSR ``Topology``. Churn and
edge failures compose here and nowhere else, so this suite drives both at
once -- on ring / random / expander graphs, for ``adpsgd``, ``saps`` and
``netmax`` -- and probes the trainer right after every churn transition and
every edge flip. The oracle is the *schedules*: ``ChurnSchedule.active_at``
and the dense ``topology.adjacency_at(t)``, which is never the trainer's
own state. At every probe:

- ``reachable(i, m)`` equals the oracle on every base-graph edge, both
  directions, and ``reachable_peers`` equals filtering the candidate array,
  in order, by the scalar form;
- ``start_transfer`` raises for every pair with a departed endpoint and, on
  a time-varying topology, for every pair that is not a live edge -- failed
  edges and non-edges alike (a static graph's peers come out of the
  neighbor cache and are not looked up again);
- NetMax's selection rows put mass only on reachable peers (and self).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.algorithms.base import TrainerConfig
from repro.algorithms.registry import create_trainer
from repro.experiments.scenarios import make_quadratic_workload
from repro.graph.topology import DynamicTopology, EdgeSchedule, make_topology
from repro.network.cluster import ClusterSpec
from repro.network.links import ClusterLinks
from repro.simulation.churn import ChurnSchedule

HORIZON_S = 12.0
TRAINER_KWARGS = {
    "adpsgd": {},
    "saps": {"extra_edges": 2},
    # A short period and a tiny LP grid: several policies get published,
    # adopted and then re-masked within the horizon, cheaply.
    "netmax": {
        "monitor_period_s": 2.0,
        "policy_outer_rounds": 2,
        "policy_inner_rounds": 2,
    },
}


def _build(algorithm, kind, n, seed, with_churn, with_edges):
    base = make_topology(kind, n, edge_probability=0.5, seed=seed)
    topology = base
    if with_edges:
        try:
            schedule = EdgeSchedule.random(
                base, HORIZON_S, num_failures=3, downtime_s=2.0, seed=seed
            )
        except ValueError:
            assume(False)  # the random graph came out a tree: no failable edge
        topology = DynamicTopology(base, schedule)
    churn = None
    if with_churn:
        churn = ChurnSchedule.random(
            n, HORIZON_S, num_departures=3, downtime_s=2.5, seed=seed
        )
    tasks, _, profile = make_quadratic_workload(n, dim=4, seed=seed)
    config = TrainerConfig(max_sim_time=HORIZON_S, eval_interval_s=6.0, seed=seed)
    return create_trainer(
        algorithm, tasks, topology, ClusterLinks(ClusterSpec.paper_heterogeneous(n)),
        profile, config, churn=churn, **TRAINER_KWARGS[algorithm],
    )


def _probe(trainer):
    """Compare the trainer's answers at ``sim.now`` with the schedules'."""
    n, now = trainer.num_workers, trainer.sim.now
    active = (
        np.ones(n, dtype=bool) if trainer.churn is None
        else trainer.churn.active_at(now)
    )
    live = trainer.topology.adjacency_at(now)
    for i in range(n):
        neighbors = trainer.topology.neighbors(i)
        expected = [int(m) for m in neighbors if active[m] and live[i, m]]
        assert [int(m) for m in neighbors if trainer.reachable(i, int(m))] == expected
        for candidates in (neighbors, neighbors[::-1], neighbors[::2]):
            assert [int(m) for m in trainer.reachable_peers(i, candidates)] == [
                int(m) for m in candidates if trainer.reachable(i, int(m))
            ]
        if trainer.name == "netmax":
            support = np.flatnonzero(trainer.workers[i].effective_probabilities > 0)
            assert set(support.tolist()) <= set(expected) | {i}
        for m in range(n):
            if m == i:
                continue
            if not (active[i] and active[m]):
                with pytest.raises(RuntimeError, match="departed worker"):
                    trainer.start_transfer(i, m)
            elif trainer.topology.is_dynamic and not live[i, m]:
                with pytest.raises(RuntimeError, match="failed edge"):
                    trainer.start_transfer(i, m)


def _run_probed(trainer):
    """Run ``trainer`` with a probe chained onto every churn / edge event."""
    probed = []

    def then_probe(event_handler):
        def handler(*args):
            event_handler(*args)
            _probe(trainer)
            probed.append(trainer.sim.now)
        return handler

    # run() looks both handlers up on the instance when it schedules them.
    trainer._churn_event = then_probe(trainer._churn_event)
    trainer._edge_flip_event = then_probe(trainer._edge_flip_event)
    _probe(trainer)  # t = 0: everyone up, every edge live
    trainer.run()
    _probe(trainer)
    return probed


@pytest.mark.parametrize("algorithm", sorted(TRAINER_KWARGS))
@given(
    kind=st.sampled_from(["ring", "random", "expander"]),
    n=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    with_churn=st.booleans(),
    with_edges=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_reachable_is_active_and_live_at_every_transition(
    algorithm, kind, n, seed, with_churn, with_edges
):
    trainer = _build(algorithm, kind, n, seed, with_churn, with_edges)
    probed = _run_probed(trainer)
    transitions = []
    if trainer.churn is not None:
        transitions += [e.time for e in trainer.churn.events if e.time < HORIZON_S]
    transitions += [t for t in trainer.topology.flip_times() if t < HORIZON_S]
    assert probed == sorted(transitions)
    assert len(trainer.churn_log) + len(trainer.edge_log) == len(transitions)

"""Time-varying topology correctness: replay, conservation, re-planning.

The dynamic-edge layer's promises, mirroring the churn suite:

1. **Deterministic replay** -- a flapping-edge run is a pure function of
   its spec: rerunning gives bit-identical histories and final parameters,
   and parallel == sequential == cached through the sweep engine.
2. **Conservation** -- no transfer ever *starts* on a currently-failed
   edge: every begin_transfer's endpoints share a live edge at its start
   time (recorded below the trainers' start_transfer guard, so a code path
   that bypassed the guard would still be caught).
3. **Re-planning** -- the NetMax monitor re-solves on every edge-set
   change, its published policies put zero mass on failed edges, and the
   policy cache turns recurring subgraphs into hits.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms.base import TrainerConfig
from repro.algorithms.registry import create_trainer
from repro.experiments.harness import run_trainer
from repro.experiments.scenarios import Scenario, build_scenario, make_workload
from repro.experiments.sweeps import (
    RunSpec,
    ScenarioSpec,
    SweepSpec,
    WorkloadSpec,
    run_sweep,
)
from repro.graph.topology import DynamicTopology, EdgeSchedule, Topology
from repro.network.links import StaticLinks

EDGE_ALGORITHMS = ("adpsgd", "saps", "netmax", "adpsgd-monitor")

M = 5


def _scenario(seed: int = 0) -> Scenario:
    return build_scenario(
        "heterogeneous", M, seed=seed, topology="ring",
        edge_failures=3, edge_horizon_s=20.0, edge_downtime_s=3.0,
    )


@pytest.fixture(scope="module")
def problem():
    scenario = _scenario()
    workload = make_workload(
        "mobilenet", "mnist", num_workers=M, batch_size=32, num_samples=256,
        seed=0,
    )
    config = TrainerConfig(max_sim_time=20.0, eval_interval_s=5.0, seed=0)
    return scenario, workload, config


def assert_results_identical(a, b):
    arrays_a, arrays_b = a.history.as_arrays(), b.history.as_arrays()
    for column in arrays_a:
        np.testing.assert_array_equal(arrays_a[column], arrays_b[column])
    np.testing.assert_array_equal(a.final_params, b.final_params)


class TestDeterministicReplay:
    @pytest.mark.parametrize("algorithm", EDGE_ALGORITHMS)
    def test_bit_identical_reruns(self, problem, algorithm):
        scenario, workload, config = problem
        first = run_trainer(algorithm, scenario, workload, config)
        second = run_trainer(algorithm, _scenario(), workload, config)
        assert_results_identical(first, second)
        assert first.extras["edge_events"] == second.extras["edge_events"]
        # 3 failures, each with a repair inside the horizon-or-run window.
        kinds = [kind for _, _, _, kind in first.extras["edge_events"]]
        assert kinds.count("fail") == 3

    def test_edge_log_matches_schedule(self, problem):
        scenario, workload, config = problem
        result = run_trainer("adpsgd", scenario, workload, config)
        schedule = scenario.topology.schedule
        expected = [
            (event.time, event.a, event.b, event.kind)
            for event in schedule.events
            if event.time < config.max_sim_time
        ]
        assert result.extras["edge_events"] == expected


class TestConservation:
    @pytest.mark.parametrize("algorithm", EDGE_ALGORITHMS)
    @pytest.mark.parametrize("overlap", [True, False])
    def test_no_transfer_starts_on_a_failed_edge(self, problem, algorithm, overlap):
        scenario, workload, config = problem
        schedule = scenario.topology.schedule
        trainer = create_trainer(
            algorithm,
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
            test_data=workload.test_data,
            overlap=overlap,
        )
        transfers = []
        original = trainer.comm.begin_transfer

        def recording_begin(receiver, sender, nbytes, time):
            transfers.append((receiver, sender, time))
            return original(receiver, sender, nbytes, time)

        trainer.comm.begin_transfer = recording_begin
        trainer.run()
        assert transfers, "run produced no transfers at all"
        for receiver, sender, time in transfers:
            assert scenario.topology.topology_at(time).has_edge(receiver, sender), (
                f"transfer {sender} -> {receiver} at t={time} started on a "
                "failed edge"
            )
            edge = (min(receiver, sender), max(receiver, sender))
            assert edge not in schedule.down_edges_at(time)

    def test_guard_raises_on_failed_edge(self, problem):
        scenario, workload, config = problem
        trainer = create_trainer(
            "adpsgd",
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
        )
        fail_time, a, b = None, None, None
        for event in scenario.topology.schedule.events:
            if event.kind == "fail":
                fail_time, a, b = event.time, event.a, event.b
                break
        trainer.sim._now = fail_time  # place the clock inside the outage
        trainer._live = scenario.topology.topology_at(fail_time)
        with pytest.raises(RuntimeError, match="failed edge"):
            trainer.start_transfer(a, b)

    def test_compute_only_when_isolated(self):
        """A worker whose only live edges failed keeps iterating locally.

        Ring of 4, require_connected off: both of worker 0's edges go down
        for a window; the run must survive and worker 0 must keep training
        (compute-only) rather than deadlock or pull over dead links.
        """
        base = Topology.ring(4)
        schedule = EdgeSchedule(
            4,
            [(3.0, 0, 1, "fail"), (3.0, 0, 3, "fail"),
             (9.0, 0, 1, "repair"), (9.0, 0, 3, "repair")],
            require_connected=False,
        )
        topology = DynamicTopology(base, schedule)
        links = StaticLinks(
            np.where(np.eye(4, dtype=bool), np.inf, 2e8), np.zeros((4, 4))
        )
        workload = make_workload(
            "mobilenet", "mnist", num_workers=4, batch_size=32,
            num_samples=256, seed=0,
        )
        config = TrainerConfig(max_sim_time=15.0, eval_interval_s=5.0, seed=0)
        scenario = Scenario(name="isolated", topology=topology, links=links)
        result = run_trainer("adpsgd", scenario, workload, config)
        assert result.global_steps > 0
        assert np.all(np.isfinite(result.final_params))


class TestMonitorReplanning:
    def test_policy_never_weights_failed_edges(self, problem):
        """Every policy published during an outage puts zero mass on the
        down edge, and policies are re-solved at flip times."""
        scenario, workload, config = problem
        trainer = create_trainer(
            "netmax",
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
            test_data=workload.test_data,
            monitor_period_s=4.0,
        )
        published = []
        original = trainer.monitor.tick

        def recording_tick(*args, **kwargs):
            result = original(*args, **kwargs)
            if result is not None:
                published.append((trainer.sim.now, result.policy))
            return result

        trainer.monitor.tick = recording_tick
        trainer.run()
        assert published, "monitor never published"
        flip_times = set(scenario.topology.flip_times())
        solve_times = {time for time, _ in published}
        assert flip_times & solve_times, (
            "no re-solve landed on an edge-flip time"
        )
        for time, policy in published:
            live = scenario.topology.adjacency_at(time)
            off_graph = ~live & ~np.eye(M, dtype=bool)
            assert np.all(policy[off_graph] == 0.0), (
                f"policy at t={time} weights a failed or absent edge"
            )
        # Recurring subgraphs: the run saw both cache activity counters move.
        stats = trainer.monitor.policy_cache.stats
        assert stats.cold_solves > 0

    def test_saps_subgraph_drawn_from_t0_edges(self, problem):
        scenario, workload, config = problem
        trainer = create_trainer(
            "saps",
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
        )
        t0 = scenario.topology.topology_at(0.0)
        for a, b in trainer.fixed_subgraph.edges():
            assert t0.has_edge(a, b)


class TestSweepEngine:
    @staticmethod
    def _spec():
        return SweepSpec(
            algorithms=("adpsgd", "netmax"),
            seeds=(0, 1),
            scenarios=(
                ScenarioSpec(
                    kind="heterogeneous",
                    num_workers=4,
                    params=(
                        ("topology", "ring"),
                        ("edge_failures", 2),
                        ("edge_horizon_s", 10.0),
                        ("edge_downtime_s", 2.0),
                    ),
                ),
            ),
            workload=WorkloadSpec(num_samples=256),
            run=RunSpec(max_sim_time=10.0),
        )

    def test_parallel_equals_sequential(self):
        seq = run_sweep(self._spec(), parallel=0)
        par = run_sweep(self._spec(), parallel=2)
        for a, b in zip(seq.outcomes, par.outcomes):
            assert_results_identical(a.result, b.result)

    def test_cached_equals_fresh(self, tmp_path):
        fresh = run_sweep(self._spec(), cache_dir=str(tmp_path))
        assert fresh.cells_executed == len(fresh)
        cached = run_sweep(self._spec(), cache_dir=str(tmp_path))
        assert cached.cells_from_cache == len(cached)
        for a, b in zip(fresh.outcomes, cached.outcomes):
            assert_results_identical(a.result, b.result)

    def test_sync_algorithms_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="time-varying"):
            SweepSpec(
                algorithms=("allreduce",),
                seeds=(0,),
                scenarios=self._spec().scenarios,
            )

    def test_edge_params_inert_without_failures(self):
        """edge_downtime_s/edge_horizon_s spelled out at edge_failures=0
        canonicalize away: same cell, same cache key."""
        bare = ScenarioSpec(kind="heterogeneous", num_workers=4)
        spelled = ScenarioSpec(
            kind="heterogeneous",
            num_workers=4,
            params=(("edge_downtime_s", 99.0), ("edge_horizon_s", 123.0)),
        )
        assert spelled == bare
        assert spelled.label() == bare.label()
        assert not spelled.has_dynamic_edges()

    def test_star_with_edge_failures_dies_at_spec_time(self):
        star = ScenarioSpec(
            kind="heterogeneous",
            num_workers=4,
            params=(("topology", "star"), ("edge_failures", 1)),
        )
        with pytest.raises(ValueError, match="bridge"):
            SweepSpec(algorithms=("adpsgd",), seeds=(0,), scenarios=(star,))


class TestScriptedSchedule:
    """A hand-written EdgeSchedule on a ring: the failure windows are known
    exactly, and the same script replays bit for bit."""

    @staticmethod
    def _scenario() -> Scenario:
        schedule = EdgeSchedule(M, [
            (3.0, 0, 1, "fail"), (6.0, 0, 1, "repair"),
            (8.0, 1, 2, "fail"), (12.0, 1, 2, "repair"),
        ])
        return replace(
            build_scenario("heterogeneous", M, seed=0),
            topology=DynamicTopology(Topology.ring(M), schedule),
        )

    def test_scripted_run_replays_bit_identically(self):
        workload = make_workload(
            "mobilenet", "mnist", num_workers=M, batch_size=32,
            num_samples=256, seed=0,
        )
        config = TrainerConfig(max_sim_time=10.0, eval_interval_s=5.0, seed=0)
        first = run_trainer("adpsgd", self._scenario(), workload, config)
        second = run_trainer("adpsgd", self._scenario(), workload, config)
        assert_results_identical(first, second)
        assert first.extras["edge_events"] == second.extras["edge_events"]
        assert [event[0] for event in first.extras["edge_events"]] == [3.0, 6.0, 8.0]

    def test_conservation_no_transfer_starts_on_a_failed_edge(self):
        """Mirrors the edge_failures conservation check: no transfer may
        begin on (0, 1) during [3, 6) or on (1, 2) during [8, 12)."""
        scenario = self._scenario()
        workload = make_workload(
            "mobilenet", "mnist", num_workers=M, batch_size=32,
            num_samples=256, seed=0,
        )
        config = TrainerConfig(max_sim_time=20.0, eval_interval_s=5.0, seed=0)
        trainer = create_trainer(
            "adpsgd",
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
            test_data=workload.test_data,
        )
        transfers = []
        original = trainer.comm.begin_transfer

        def recording_begin(receiver, sender, nbytes, time):
            transfers.append((receiver, sender, time))
            return original(receiver, sender, nbytes, time)

        trainer.comm.begin_transfer = recording_begin
        trainer.run()
        assert transfers, "run produced no transfers at all"
        for receiver, sender, time in transfers:
            assert scenario.topology.topology_at(time).has_edge(receiver, sender), (
                f"transfer {sender} -> {receiver} at t={time} started on a "
                "failed edge"
            )

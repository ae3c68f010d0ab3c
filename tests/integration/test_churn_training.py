"""Churn correctness: deterministic replay, conservation, rejoin semantics.

The three properties the churn layer promises:

1. **Deterministic replay** -- a churn run is a pure function of its spec:
   rerunning gives bit-identical histories and final parameters.
2. **Conservation** -- no gossip/flow event ever targets a departed worker:
   every transfer's endpoints are active at the moment it begins.
3. **Rejoin resumes** -- a departed worker's replica is frozen while away
   (nobody writes it) and training continues from exactly that state at its
   rejoin.
"""

import numpy as np
import pytest

from repro.algorithms.adpsgd import ADPSGDTrainer
from repro.algorithms.base import TrainerConfig
from repro.experiments.harness import run_trainer
from repro.experiments.scenarios import (
    build_scenario,
    heterogeneous_scenario,
    make_quadratic_workload,
    make_workload,
)
from repro.graph.topology import Topology
from repro.network.links import StaticLinks
from repro.simulation.churn import ChurnSchedule

CHURN_ALGORITHMS = ("adpsgd", "saps", "netmax", "adpsgd-monitor")
SYNC_ALGORITHMS = ("allreduce", "prague", "ps-syn", "ps-asyn")


@pytest.fixture(scope="module")
def problem():
    scenario = heterogeneous_scenario(4, seed=0)
    workload = make_workload(
        "mobilenet", "mnist", num_workers=4, batch_size=32, num_samples=256, seed=0
    )
    config = TrainerConfig(max_sim_time=20.0, eval_interval_s=5.0, seed=0)
    return scenario, workload, config


def churn_schedule():
    return ChurnSchedule(4, [(4.0, 1, "leave"), (11.0, 1, "join"),
                             (13.0, 3, "leave")])


def assert_results_identical(a, b):
    arrays_a, arrays_b = a.history.as_arrays(), b.history.as_arrays()
    for column in arrays_a:
        np.testing.assert_array_equal(arrays_a[column], arrays_b[column])
    np.testing.assert_array_equal(a.final_params, b.final_params)


class TestDeterministicReplay:
    @pytest.mark.parametrize("algorithm", CHURN_ALGORITHMS)
    def test_bit_identical_reruns(self, problem, algorithm):
        scenario, workload, config = problem
        first = run_trainer(algorithm, scenario, workload, config, churn=churn_schedule())
        second = run_trainer(algorithm, scenario, workload, config, churn=churn_schedule())
        assert_results_identical(first, second)
        assert first.extras["churn_events"] == second.extras["churn_events"]
        assert [kind for _, _, kind in first.extras["churn_events"]] == [
            "leave", "join", "leave"
        ]


class TestConservation:
    @pytest.mark.parametrize("algorithm", CHURN_ALGORITHMS)
    @pytest.mark.parametrize("overlap", [True, False])
    def test_no_transfer_touches_a_departed_worker(self, problem, algorithm, overlap):
        """Every begin_transfer's endpoints are active at its start time.

        Recorded at the CommunicationModel layer (below the trainers'
        start_transfer guard), so a code path that bypassed the guard would
        still be caught, including the serial (overlap=False) pull path
        where the peer may depart during the gradient computation.
        """
        scenario, workload, config = problem
        schedule = churn_schedule()
        from repro.algorithms.registry import create_trainer

        trainer = create_trainer(
            algorithm,
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
            test_data=workload.test_data,
            churn=schedule,
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
            active = schedule.active_at(time)
            assert active[receiver] and active[sender], (
                f"transfer {sender} -> {receiver} at t={time} touched a "
                "departed worker"
            )

    def test_guard_raises_on_departed_endpoint(self, problem):
        scenario, workload, config = problem
        trainer = ADPSGDTrainer(
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
            churn=churn_schedule(),
        )
        trainer._active[2] = False
        with pytest.raises(RuntimeError, match="departed"):
            trainer.start_transfer(0, 2)


class RecordingTrainer(ADPSGDTrainer):
    """Captures the departed worker's state at its leave and join edges."""

    def _on_worker_leave(self, worker):
        self.left_params = self.tasks[worker].model.get_params().copy()
        self.left_iterations = self.tasks[worker].iterations
        super()._on_worker_leave(worker)

    def _on_worker_join(self, worker):
        self.join_params = self.tasks[worker].model.get_params().copy()
        self.join_iterations = self.tasks[worker].iterations
        super()._on_worker_join(worker)


class TestRejoinResumes:
    def test_frozen_while_away_and_resumes(self, problem):
        scenario, workload, config = problem
        trainer = RecordingTrainer(
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
            test_data=workload.test_data,
            churn=ChurnSchedule(4, [(5.0, 1, "leave"), (14.0, 1, "join")]),
        )
        trainer.run()
        # Nothing touched the replica or its iteration count while away...
        np.testing.assert_array_equal(trainer.left_params, trainer.join_params)
        assert trainer.left_iterations == trainer.join_iterations
        # ...and training genuinely resumed from that state afterwards.
        final = trainer.tasks[1].model.get_params()
        assert trainer.tasks[1].iterations > trainer.join_iterations
        assert not np.array_equal(final, trainer.join_params)


class TestComputeOnlySurvival:
    def test_leaf_workers_survive_center_departure(self):
        """Star topology: when the hub departs, the leaves have no active
        neighbors and must fall back to compute-only local SGD, not stall."""
        tasks, _, profile = make_quadratic_workload(3, dim=4, seed=0)
        m = 3
        bandwidth = np.full((m, m), 1e8)
        np.fill_diagonal(bandwidth, np.inf)
        links = StaticLinks(bandwidth, np.zeros((m, m)))
        config = TrainerConfig(max_sim_time=30.0, eval_interval_s=10.0, seed=0)
        trainer = ADPSGDTrainer(
            tasks,
            Topology.star(3),
            links,
            profile,
            config,
            churn=ChurnSchedule(3, [(2.0, 0, "leave"), (25.0, 0, "join")]),
        )
        before = [task.iterations for task in tasks]
        trainer.run()
        # The leaves kept iterating through the long hub outage.
        assert tasks[1].iterations > before[1] + 10
        assert tasks[2].iterations > before[2] + 10
        assert [kind for _, _, kind in trainer.churn_log] == ["leave", "join"]


class TestSynchronousChurn:
    """Round-based churn for allreduce/PS/Prague (the old carve-out is gone):
    membership is the active set at round start, dropped stragglers
    contribute nothing to any aggregate, and rejoiners are re-admitted at
    their next round."""

    @pytest.mark.parametrize("algorithm", SYNC_ALGORITHMS)
    def test_bit_identical_reruns(self, problem, algorithm):
        scenario, workload, config = problem
        first = run_trainer(algorithm, scenario, workload, config, churn=churn_schedule())
        second = run_trainer(algorithm, scenario, workload, config, churn=churn_schedule())
        assert_results_identical(first, second)
        assert first.extras["churn_events"] == second.extras["churn_events"]
        assert [kind for _, _, kind in first.extras["churn_events"]] == [
            "leave", "join", "leave"
        ]

    @pytest.mark.parametrize("algorithm", SYNC_ALGORITHMS)
    def test_no_departed_worker_in_any_aggregate(self, problem, algorithm):
        """Every applied aggregation's membership (round_log) is a subset of
        the schedule's active set at that time -- the sync-trainer analogue
        of the no-transfer-touches-a-departed-worker conservation law."""
        scenario, workload, config = problem
        schedule = churn_schedule()
        from repro.algorithms.registry import create_trainer

        trainer = create_trainer(
            algorithm,
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
            test_data=workload.test_data,
            churn=schedule,
        )
        trainer.run()
        assert trainer.round_log, "run performed no aggregations at all"
        saw_reduced_round = False
        for time, members in trainer.round_log:
            active = schedule.active_at(time)
            for member in members:
                assert active[member], (
                    f"aggregate at t={time} included departed worker {member}"
                )
            if len(members) < trainer.num_workers:
                saw_reduced_round = True
        # The schedule's outage windows overlap training, so renormalized
        # (smaller) aggregates must actually have happened.
        assert saw_reduced_round

    @pytest.mark.parametrize("algorithm", SYNC_ALGORITHMS)
    def test_departed_replica_frozen_and_readmitted(self, problem, algorithm):
        """Worker 1 computes nothing while away (iterations stall) and is
        re-admitted after its rejoin (iterations advance again)."""
        scenario, workload, config = problem
        schedule = churn_schedule()  # worker 1 away on [4, 11)
        from repro.algorithms.registry import create_trainer

        trainer = create_trainer(
            algorithm,
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
            test_data=workload.test_data,
            churn=schedule,
        )
        trainer.run()
        in_window = [
            members for time, members in trainer.round_log if 4.0 <= time < 11.0
        ]
        assert in_window, "no aggregations during the outage window"
        assert all(1 not in members for members in in_window)
        after = [
            members for time, members in trainer.round_log if time >= 11.0
        ]
        assert any(1 in members for members in after), (
            "worker 1 was never re-admitted after its rejoin"
        )

    def test_worker_count_mismatch_rejected(self, problem):
        scenario, workload, config = problem
        with pytest.raises(ValueError, match="churn schedule is for"):
            run_trainer(
                "adpsgd", scenario, workload, config,
                churn=ChurnSchedule(6, [(5.0, 1, "leave")]),
            )


class TestChurnOnSparseTopology:
    """Churn x topology: the star-center departure is the worst case -- the
    hub leaves and the active subgraph disconnects entirely. Gossip trainers
    must fall back to compute-only iterations, synchronous trainers must
    keep aggregating over the leaves, and everyone must pick the hub back up
    after its rejoin."""

    @pytest.mark.parametrize("algorithm", ["adpsgd", "netmax", "allreduce", "prague"])
    def test_center_departure_and_rejoin(self, algorithm):
        scenario = build_scenario("heterogeneous", 4, seed=0, topology="star")
        assert scenario.topology.degree(0) == 3  # worker 0 is the hub
        workload = make_workload(
            "mobilenet", "mnist", num_workers=4, batch_size=32, num_samples=256,
            seed=0,
        )
        config = TrainerConfig(max_sim_time=20.0, eval_interval_s=5.0, seed=0)
        from repro.algorithms.registry import create_trainer

        trainer = create_trainer(
            algorithm,
            workload.make_tasks(),
            scenario.topology,
            scenario.links,
            workload.profile,
            config,
            test_data=workload.test_data,
            churn=ChurnSchedule(4, [(3.0, 0, "leave"), (15.0, 0, "join")]),
        )
        result = trainer.run()
        assert [kind for _, _, kind in trainer.churn_log] == ["leave", "join"]
        # The leaves kept training through the hub outage...
        for leaf in (1, 2, 3):
            assert trainer.tasks[leaf].iterations > 10, (
                f"leaf {leaf} stalled during the hub outage"
            )
        # ...and the hub itself trained both before its leave and after its
        # rejoin (it cannot have iterated much in only [0, 3) + [15, 20)).
        assert 0 < trainer.tasks[0].iterations < max(
            trainer.tasks[leaf].iterations for leaf in (1, 2, 3)
        )
        assert np.isfinite(result.history.final_loss())


class TestRejoinDuringInFlightIteration:
    """Regression: a rejoin landing while a pre-departure iteration is still
    in flight must NOT start a second concurrent loop for the worker (the
    stale completion used to reschedule alongside the rejoin's restart,
    permanently doubling the worker's update rate)."""

    def slow_problem(self, trainer_cls, **kwargs):
        tasks, _, profile = make_quadratic_workload(3, dim=4, model="mobilenet", seed=0)
        m = 3
        bandwidth = np.full((m, m), 4e6)  # ~4.2 s per model transfer
        np.fill_diagonal(bandwidth, np.inf)
        links = StaticLinks(bandwidth, np.zeros((m, m)))
        config = TrainerConfig(max_sim_time=40.0, eval_interval_s=10.0, seed=0)
        # Leave at 1.0, rejoin at 2.0: well inside the first ~4 s transfer.
        churn = ChurnSchedule(3, [(1.0, 1, "leave"), (2.0, 1, "join")])
        return trainer_cls(
            tasks, Topology.fully_connected(3), links, profile, config,
            churn=churn, **kwargs,
        )

    @pytest.mark.parametrize("trainer_cls", [ADPSGDTrainer, None])
    def test_single_loop_after_overlapped_rejoin(self, trainer_cls):
        if trainer_cls is None:
            from repro.algorithms.netmax import NetMaxTrainer
            trainer_cls = NetMaxTrainer
        trainer = self.slow_problem(trainer_cls)
        trainer.run()
        iterations = [task.iterations for task in trainer.tasks]
        # A duplicated loop would give worker 1 roughly 2x its peers'
        # iteration count; a parked-then-resumed loop stays comparable.
        assert iterations[1] <= max(iterations[0], iterations[2]) + 2, iterations

    def test_serial_path_single_loop_too(self):
        trainer = self.slow_problem(ADPSGDTrainer, overlap=False)
        trainer.run()
        iterations = [task.iterations for task in trainer.tasks]
        assert iterations[1] <= max(iterations[0], iterations[2]) + 2, iterations

"""The shared per-event gossip loop (:mod:`repro.algorithms.gossip`).

Two claims:

1. **The scaffold is sufficient.** A toy trainer that defines *only* the
   two hooks (``_select_peer``, ``_apply_update``) inherits the whole loop:
   overlapped and serial scheduling, and the churn / time-varying-edge
   conservation rules the integration suites assert of the real trainers.
2. **The scaffold is the only loop.** The four gossip trainers resolve
   ``_start_iteration`` / ``_serial_pull`` / ``_complete_iteration`` to
   :class:`GossipTrainer`'s.
3. **Liveness has one spelling.** The loop and the uniform selector learn
   "peer active and edge live" only through the base class's ``reachable``
   / ``reachable_peers``; the dense-or-view twin they used to index is gone
   from ``src/`` altogether.
"""

from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms.adpsgd import ADPSGDTrainer
from repro.algorithms.adpsgd_monitor import ADPSGDMonitorTrainer
from repro.algorithms.base import TrainerConfig
from repro.algorithms.gossip import GossipTrainer
from repro.algorithms.netmax import NetMaxTrainer
from repro.algorithms.saps import SAPSTrainer
from repro.experiments.scenarios import heterogeneous_scenario, make_quadratic_workload
from repro.graph.topology import DynamicTopology, EdgeSchedule
from repro.simulation.churn import ChurnSchedule

M = 4
# The quadratic workload's (jitter-free) gradient computation time.
COMPUTE_S = 0.15


class RoundRobinGossip(GossipTrainer):
    """The two hooks and nothing else: pull from the reachable neighbors in
    turn (no RNG), average half-and-half, take a plain SGD step. The hooks
    also keep the books the tests read (``build`` attaches them)."""

    name = "toy-gossip"

    def _select_peer(self, worker):
        key = (worker, self._churn_epoch[worker])
        self.live_loops[key] += 1
        assert self.live_loops[key] == 1, f"two live loops for worker {worker}"
        self.turn[worker] += 1
        reachable = [
            int(n) for n in self.topology.neighbors(worker)
            if self.reachable(worker, n)
        ]
        peer = reachable[self.turn[worker] % len(reachable)] if reachable else worker
        self.selected[worker].append(peer)
        return peer, 0.5

    def _apply_update(self, worker, peer, weight, grad, lr, duration):
        self.live_loops[(worker, self._churn_epoch[worker])] -= 1
        self.applied[worker].append((peer, duration))
        model = self.tasks[worker].model
        params = model.get_params()
        if peer != worker:
            params = (1.0 - weight) * params + weight * self.pulled_params(worker, peer)
        model.set_params(params - lr * grad)


def build(topology=None, *, max_sim_time=20.0, **kwargs):
    scenario = heterogeneous_scenario(M, dynamic=False, seed=0)
    tasks, _, profile = make_quadratic_workload(M, dim=6, seed=0)
    config = TrainerConfig(max_sim_time=max_sim_time, eval_interval_s=5.0, seed=0)
    trainer = RoundRobinGossip(
        tasks, topology or scenario.topology, scenario.links, profile, config,
        **kwargs,
    )
    trainer.turn = Counter()
    trainer.live_loops = Counter()  # (worker, churn epoch) -> in flight
    trainer.selected = {w: [] for w in range(M)}
    trainer.applied = {w: [] for w in range(M)}
    transfers = []
    original = trainer.comm.begin_transfer

    def recording_begin(receiver, sender, nbytes, time):
        transfers.append((receiver, sender, time))
        return original(receiver, sender, nbytes, time)

    # Recorded below start_transfer's guard, like the integration suites.
    trainer.comm.begin_transfer = recording_begin
    return trainer, transfers


class TestTwoHooksAreEnough:
    def test_hooks_are_required(self):
        scenario = heterogeneous_scenario(M, dynamic=False, seed=0)
        tasks, _, profile = make_quadratic_workload(M, dim=6, seed=0)
        with pytest.raises(TypeError, match="abstract"):
            GossipTrainer(
                tasks, scenario.topology, scenario.links, profile, TrainerConfig()
            )

    @pytest.mark.parametrize("overlap", [True, False])
    def test_trains_overlapped_and_serial(self, overlap):
        trainer, transfers = build(overlap=overlap)
        result = trainer.run()
        assert transfers
        assert result.history.train_losses[-1] < result.history.train_losses[0]
        for worker in range(M):
            assert len(trainer.applied[worker]) > 10
            for peer, duration in trainer.applied[worker]:
                assert peer != worker  # static full graph: always a pull
                if overlap:
                    assert duration >= COMPUTE_S  # max(C, N)
                else:
                    assert duration > COMPUTE_S  # C + N
        # Every transfer that began also ended (or is the one in flight).
        assert sum(trainer.comm._inbound) <= M

    def test_serial_iterations_cost_compute_plus_network(self):
        overlapped, _ = build(overlap=True)
        serial, _ = build(overlap=False)
        overlapped.run()
        serial.run()
        # Worker 0's first iteration: same peer, same uncontended network.
        peer, overlapped_duration = overlapped.applied[0][0]
        serial_peer, serial_duration = serial.applied[0][0]
        assert peer == serial_peer
        network = serial_duration - COMPUTE_S
        assert overlapped_duration == pytest.approx(max(COMPUTE_S, network))

    @pytest.mark.parametrize("overlap", [True, False])
    def test_churn_conservation_and_single_live_loop(self, overlap):
        # Worker 1 is away for 10 ms -- far less than one iteration -- so
        # its rejoin lands while the pre-departure iteration is still in
        # flight: the stale continuation must be dropped, not double the
        # loop (the hook asserts one live loop per worker on every start).
        schedule = ChurnSchedule(
            M, [(3.0, 1, "leave"), (3.01, 1, "join"), (6.0, 2, "leave"),
                (12.0, 2, "join")],
        )
        trainer, transfers = build(churn=schedule, overlap=overlap)
        trainer.run()
        assert [kind for _, _, kind in trainer.churn_log] == [
            "leave", "join", "leave", "join"
        ]
        assert transfers
        for receiver, sender, time in transfers:
            active = schedule.active_at(time)
            assert active[receiver] and active[sender], (receiver, sender, time)
        # Each departure strands exactly one iteration: started, never
        # applied, never rescheduled.
        assert trainer.live_loops[(1, 0)] == 1
        assert trainer.live_loops[(2, 0)] == 1
        # The rejoin's fresh loop is the one that keeps running.
        assert trainer.live_loops[(1, 1)] <= 1
        assert len(trainer.selected[1]) > 20
        # Worker 2 sat out six seconds of the run.
        assert trainer.tasks[2].iterations < trainer.tasks[0].iterations

    @pytest.mark.parametrize("overlap", [True, False])
    def test_no_transfer_starts_on_a_failed_edge(self, overlap):
        scenario = heterogeneous_scenario(M, dynamic=False, seed=0)
        schedule = EdgeSchedule.flapping(M, (0, 1), period_s=0.7, horizon_s=20.0)
        topology = DynamicTopology(scenario.topology, schedule)
        trainer, transfers = build(topology, overlap=overlap)
        result = trainer.run()
        assert result.extras["edge_events"]
        assert transfers
        for receiver, sender, time in transfers:
            assert topology.topology_at(time).has_edge(receiver, sender), (
                f"transfer {sender} -> {receiver} at t={time} started on a "
                "failed edge"
            )
        # The edge also fails *under* iterations that had already chosen it:
        # those complete compute-only instead of mixing in a dead pull.
        fell_back = sum(
            chosen != worker and applied == worker
            for worker in (0, 1)
            for chosen, (applied, _) in zip(
                trainer.selected[worker], trainer.applied[worker]
            )
        )
        assert fell_back > 0

    def test_stale_epoch_continuations_do_nothing(self):
        trainer, transfers = build(
            churn=ChurnSchedule(M, [(1.0, 0, "leave"), (2.0, 0, "join")]),
            overlap=False,
        )
        stale = trainer._churn_epoch[0]
        trainer._churn_epoch[0] += 1  # what a departure does
        before = trainer.tasks[0].model.get_params().copy()
        trainer._complete_iteration(0, 1, COMPUTE_S, COMPUTE_S, 0.5, stale)
        trainer._serial_pull(0, 1, COMPUTE_S, 0.5, stale)
        np.testing.assert_array_equal(trainer.tasks[0].model.get_params(), before)
        assert trainer.tasks[0].iterations == 0
        assert trainer.sim.pending == 0  # nothing rescheduled
        assert not transfers
        assert not trainer.selected[0] and not trainer.applied[0]  # no hook ran


class TestOneLoopOnly:
    @pytest.mark.parametrize(
        "trainer_cls",
        [ADPSGDTrainer, SAPSTrainer, NetMaxTrainer, ADPSGDMonitorTrainer],
    )
    def test_loop_methods_resolve_to_the_scaffold(self, trainer_cls):
        assert issubclass(trainer_cls, GossipTrainer)
        for method in ("_start_iteration", "_serial_pull", "_complete_iteration"):
            assert getattr(trainer_cls, method) is getattr(GossipTrainer, method), (
                f"{trainer_cls.__name__} forks {method}"
            )
        for hook in ("_select_peer", "_apply_update"):
            assert getattr(trainer_cls, hook) is not getattr(GossipTrainer, hook)
        assert trainer_cls.supports_dynamic_edges


class TestOneLivenessRule:
    SRC = Path(repro.__file__).parent

    def test_the_dense_or_view_twin_is_gone(self):
        retired = (
            "_edge_adjacency", "adjacency_view", "AdjacencyView",
            "set_edge_mask", "set_active_mask",
        )
        for path in sorted(self.SRC.rglob("*.py")):
            source = path.read_text()
            for name in retired:
                assert name not in source, f"{path.relative_to(self.SRC)}: {name}"

    @pytest.mark.parametrize("module", ["gossip.py", "adpsgd.py"])
    def test_gossip_reads_liveness_only_through_reachable(self, module):
        source = (self.SRC / "algorithms" / module).read_text()
        assert "self.reachable" in source
        for name in ("adjacency", "has_edge", "_live"):
            assert name not in source, f"{module} reads {name}"

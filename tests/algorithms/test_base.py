"""Unit tests for the trainer base machinery."""

import tracemalloc

import numpy as np
import pytest

from repro.algorithms.base import DecentralizedTrainer, TrainerConfig, WorkerTask
from repro.algorithms.registry import create_trainer
from repro.experiments.figures_scaling import scalability_scenario
from repro.experiments.scenarios import make_quadratic_workload
from repro.graph import DynamicTopology, EdgeSchedule, Topology
from repro.ml.data import BatchSampler, Dataset
from repro.ml.models import SoftmaxRegression
from repro.ml.optim import PlateauDecayLR
from repro.ml.problems import QuadraticProblem
from repro.network.cluster import ClusterSpec
from repro.network.costmodel import get_cost_profile
from repro.network.links import ClusterLinks


class NullTrainer(DecentralizedTrainer):
    """Schedules nothing; used to exercise the shared machinery."""

    name = "null"

    def _setup(self):
        pass


def make_tasks(num_workers=4, with_data=True, seed=0):
    tasks = []
    rng = np.random.default_rng(seed)
    for i in range(num_workers):
        if with_data:
            model = SoftmaxRegression(3, 2, rng=np.random.default_rng(seed))
            ds = Dataset(rng.normal(size=(16, 3)), rng.integers(0, 2, 16), 2)
            sampler = BatchSampler(ds, 4, np.random.default_rng(seed + i))
            tasks.append(WorkerTask(model, sampler))
        else:
            problem = QuadraticProblem(np.eye(2), np.zeros(2))
            tasks.append(WorkerTask(problem))
    return tasks


def make_trainer(tasks=None, num_workers=4, **config_kwargs):
    tasks = tasks if tasks is not None else make_tasks(num_workers)
    return NullTrainer(
        tasks,
        Topology.fully_connected(len(tasks)),
        ClusterLinks(ClusterSpec.paper_heterogeneous(len(tasks))),
        get_cost_profile("resnet18"),
        TrainerConfig(max_sim_time=10.0, **config_kwargs),
    )


class TestTrainerConfig:
    def test_defaults_valid(self):
        config = TrainerConfig()
        assert config.max_sim_time > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_sim_time": 0.0},
            {"max_epochs": -1.0},
            {"eval_interval_s": 0.0},
            {"eval_max_samples": 0},
            {"iterations_per_epoch_hint": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)


class TestWorkerTask:
    def test_sampler_epochs(self):
        task = make_tasks(1)[0]
        for _ in range(4):  # 16 samples / batch 4 = one epoch
            task.sample_loss_and_grad()
        assert task.epoch_progress(50) == pytest.approx(1.0)

    def test_samplerless_epochs_use_hint(self):
        task = make_tasks(1, with_data=False)[0]
        for _ in range(10):
            task.sample_loss_and_grad()
        assert task.epoch_progress(5) == pytest.approx(2.0)

    def test_batch_size(self):
        assert make_tasks(1)[0].batch_size == 4
        assert make_tasks(1, with_data=False)[0].batch_size is None


class TestTrainerValidation:
    def test_task_count_mismatch(self):
        with pytest.raises(ValueError, match="tasks"):
            NullTrainer(
                make_tasks(3),
                Topology.fully_connected(4),
                ClusterLinks(ClusterSpec.paper_heterogeneous(4)),
                get_cost_profile("resnet18"),
                TrainerConfig(),
            )

    def test_disconnected_topology_rejected(self):
        with pytest.raises(ValueError, match="Assumption 1"):
            NullTrainer(
                make_tasks(4),
                Topology.from_edges(4, [(0, 1), (2, 3)]),
                ClusterLinks(ClusterSpec.paper_heterogeneous(4)),
                get_cost_profile("resnet18"),
                TrainerConfig(),
            )

    def test_mixed_model_dims_rejected(self):
        tasks = make_tasks(3)
        tasks.append(WorkerTask(QuadraticProblem(np.eye(5), np.zeros(5))))
        with pytest.raises(ValueError, match="dimension"):
            NullTrainer(
                tasks,
                Topology.fully_connected(4),
                ClusterLinks(ClusterSpec.paper_heterogeneous(4)),
                get_cost_profile("resnet18"),
                TrainerConfig(),
            )

    def test_config_deep_copied(self):
        """Trainers must not mutate the caller's (stateful) LR schedule."""
        schedule = PlateauDecayLR(0.1)
        config = TrainerConfig(max_sim_time=10.0, lr_schedule=schedule)
        trainer = NullTrainer(
            make_tasks(4),
            Topology.fully_connected(4),
            ClusterLinks(ClusterSpec.paper_heterogeneous(4)),
            get_cost_profile("resnet18"),
            config,
        )
        trainer.config.lr_schedule.observe_loss(0.001)
        for _ in range(5):
            trainer.config.lr_schedule.observe_loss(0.001)
        assert trainer.config.lr_schedule.lr(0) < 0.1  # trainer's copy decayed
        assert schedule.lr(0) == 0.1  # original untouched


class TestTrainerQueries:
    def test_compute_time_uses_batch_size(self):
        trainer = make_trainer()
        profile = get_cost_profile("resnet18")
        expected = profile.compute_time_s * 4 / profile.reference_batch
        assert trainer.compute_time(0) == pytest.approx(expected)

    def test_quadratic_tasks_use_reference_batch(self):
        trainer = make_trainer(tasks=make_tasks(4, with_data=False))
        assert trainer.compute_time(0) == pytest.approx(
            get_cost_profile("resnet18").compute_time_s
        )

    def test_params_matrix_shape(self):
        trainer = make_trainer()
        matrix = trainer.params_matrix()
        assert matrix.shape == (4, trainer.tasks[0].model.dim)

    def test_run_records_history_even_with_no_events(self):
        trainer = make_trainer()
        result = trainer.run()
        assert len(result.history) >= 2  # t=0 eval + final eval
        assert result.algorithm == "null"

    @pytest.mark.parametrize("with_data", [True, False], ids=["sampler", "samplerless"])
    def test_record_iteration_tracks_epoch_boundaries(self, with_data):
        """An epoch is one pass over the shard (16 samples at batch 4), or
        ``iterations_per_epoch_hint`` draws for a sampler-less task."""
        trainer = make_trainer(
            make_tasks(4, with_data=with_data), iterations_per_epoch_hint=4
        )
        task = trainer.tasks[0]
        for step in range(1, 10):
            task.sample_loss_and_grad()
            trainer.record_iteration(0, 0.1, 0.2)
            assert trainer.costs.epochs_completed[0] == step // 4
            assert trainer.mean_epoch() == pytest.approx(step / 4 / 4)


class TestEdgeFlipCost:
    def test_flip_allocates_no_dense_matrix(self):
        """A flip diffs two CSR edge lists: on the 1024-worker scaling
        expander it stays under one dense 1024 x 1024 bool matrix (1 MB),
        where diffing adjacency matrices took four."""
        n = 1024
        base, links = scalability_scenario(n)
        a, b = base.edges()[0]
        schedule = EdgeSchedule.flapping(n, (a, b), period_s=4.0, horizon_s=5.0)
        tasks, _, profile = make_quadratic_workload(n, dim=2)
        trainer = create_trainer(
            "adpsgd", tasks, DynamicTopology(base, schedule), links, profile,
            TrainerConfig(max_sim_time=5.0),
        )
        peaks = []
        for event in schedule.events:
            trainer.sim._now = event.time
            tracemalloc.start()
            try:
                trainer._edge_flip_event()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert trainer._edges_all_up == (event.kind == "repair")
            assert trainer.reachable(a, b) == (event.kind == "repair")
        assert max(peaks) < n * n
        assert trainer.edge_log == [(2.0, a, b, "fail"), (4.0, a, b, "repair")]

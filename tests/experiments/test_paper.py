"""The paper's figures and tables, and the beyond-paper figures, as
declarations run by ``regenerate``.

Each experiment must run end-to-end at tiny scale, produce the paper's row
structure, and (where cheap to check) exhibit the paper's qualitative shape;
the bench-scale shape assertions live in benchmarks/bench_paper.py. On top:
the cell a declaration builds is the run the hand-written triple describes,
and every figure has the sweep engine's cache and backends.
"""

import math
import pathlib
import re
import time

import numpy as np
import pytest

import repro
from repro.algorithms.base import TrainerConfig
from repro.cli import build_parser
from repro.datasets.partition import (
    PAPER_CLOUD_LOST_LABELS,
    PAPER_MNIST_LOST_LABELS,
    paper_segment_layout,
)
from repro.experiments import (
    PAPER_EXPERIMENTS,
    heterogeneous_scenario,
    make_workload,
    multi_cloud_scenario,
    regenerate,
    run_trainer,
)
from repro.experiments.sweeps import SweepCell
from repro.ml.optim import ConstantLR, StepDecayLR

SRC = pathlib.Path(repro.__file__).parent
DOCS = SRC.parents[1] / "docs"


def panels(experiment_id, seed=0, **scale):
    """The labelled grids a declaration builds at ``scale``."""
    experiment = PAPER_EXPERIMENTS[experiment_id]
    return experiment.grids(seed, **{**experiment.scale, **scale})


class TestFigure5:
    @pytest.mark.slow
    def test_structure_and_shape(self):
        out = regenerate(
            "fig5", models=("resnet18",), num_samples=768, max_sim_time=60.0
        )
        assert len(out.rows) == 4
        by_algo = {row[1]: row for row in out.rows}
        # Computation cost roughly equal across algorithms (same model/GPU).
        comps = [row[2] for row in out.rows]
        assert max(comps) / min(comps) < 1.5
        # Decomposition sums.
        for row in out.rows:
            assert row[4] == pytest.approx(row[2] + row[3], rel=1e-6)
        assert by_algo["netmax"][3] >= 0


class TestFigure7:
    @pytest.mark.slow
    def test_four_settings_per_model(self):
        out = regenerate(
            "fig7", models=("resnet18",), num_samples=768, max_sim_time=60.0
        )
        assert len(out.rows) == 4
        settings = {row[1] for row in out.rows}
        assert settings == {
            "serial+uniform", "parallel+uniform", "serial+adaptive", "parallel+adaptive"
        }


class TestFigure8:
    @pytest.mark.slow
    def test_series_present_for_each_algorithm(self):
        out = regenerate("fig8", num_samples=768, max_sim_time=60.0)
        labels = {s.label for s in out.series}
        assert labels == {"prague", "allreduce", "adpsgd", "netmax"}
        for series in out.series:
            assert series.y[-1] < series.y[0]  # loss decreased


class TestFigure18:
    @pytest.mark.slow
    def test_rows_and_accuracy(self):
        out = regenerate("fig18", num_samples=768, max_sim_time=40.0)
        assert len(out.rows) == 4
        for row in out.rows:
            assert 0.0 <= row[2] <= 1.0  # test accuracy column


class TestTable6:
    @pytest.mark.slow
    def test_six_algorithms(self):
        out = regenerate("table6", num_samples=1024, max_sim_time=60.0)
        assert len(out.rows) == 6
        names = {row[0] for row in out.rows}
        assert "ps-syn" in names and "ps-asyn" in names


class TestScalabilityGuard:
    @pytest.mark.parametrize("experiment_id, scale, required", [
        ("fig10", dict(worker_counts=(4,)), "allreduce"),
        ("fig8", dict(), "adpsgd"),
        ("fig12", dict(), "adpsgd"),
    ])
    def test_required_algorithm_checked_before_any_cell_runs(
        self, monkeypatch, experiment_id, scale, required
    ):
        """The scalability baseline and the speedup reference: missing one
        used to surface only after every algorithm had trained."""
        monkeypatch.setattr(
            SweepCell, "execute", lambda self: pytest.fail("a cell executed")
        )
        others = tuple({"netmax", "adpsgd", "allreduce"} - {required})
        with pytest.raises(ValueError, match=f"{experiment_id}.*{required}"):
            regenerate(experiment_id, algorithms=others, **scale)

    def test_unfinished_runs_do_not_read_as_finished(self):
        """``repro figure fig10 --sim-time 6 --samples 512``: most runs
        exhaust the budget before epoch 10. Their time-to-target used to be
        the budget itself and, the baseline having run out too, their
        speedup exactly 1."""
        out = regenerate("fig10", max_sim_time=6.0, num_samples=512)
        times = {(row[0], row[1]): row[2] for row in out.rows}
        assert times["adpsgd", 4] < 6.0  # the finished runs keep their time
        assert times["netmax", 16] < 6.0
        assert all(own < 6.0 for own in times.values() if not math.isnan(own))
        unfinished = {key for key, own in times.items() if math.isnan(own)}
        assert unfinished >= {(name, 8) for name in
                              ("prague", "allreduce", "adpsgd", "netmax")}
        # The allreduce @ 4 baseline is among the unfinished: no speedup.
        assert ("allreduce", 4) in unfinished
        assert all(math.isnan(row[3]) for row in out.rows)
        assert "budget ended" in out.notes


def assert_same_run(result, oracle):
    np.testing.assert_array_equal(result.final_params, oracle.final_params)
    arrays, expected = result.history.as_arrays(), oracle.history.as_arrays()
    assert set(arrays) == set(expected)
    for column in expected:
        np.testing.assert_array_equal(arrays[column], expected[column])
    assert result.sim_time == oracle.sim_time
    assert result.global_steps == oracle.global_steps


def config(max_sim_time, seed, evaluations=25, **overrides):
    return TrainerConfig(
        max_sim_time=max_sim_time,
        eval_interval_s=max(5.0, max_sim_time / evaluations),
        seed=seed,
        **overrides,
    )


class TestOracleEquivalence:
    """A declaration's cell is ``run_trainer`` on the (scenario, workload,
    config) triple the figure functions used to assemble by hand -- the
    triples live here as the oracle -- bit for bit."""

    SEED = 2

    def cell(self, experiment_id, label, algorithm, **scale):
        (cell,) = [
            cell
            for panel, spec in panels(experiment_id, seed=self.SEED, **scale)
            if panel == label
            for cell in spec.cells()
            if cell.algorithm == algorithm
        ]
        return cell

    def test_fig5_heterogeneous_cifar10(self):
        cell = self.cell(
            "fig5", {"model": "vgg19", "workers": 4}, "netmax",
            models=("vgg19",), num_workers=4, num_samples=512, max_sim_time=20.0,
        )
        oracle = run_trainer(
            "netmax",
            heterogeneous_scenario(4, seed=self.SEED),
            make_workload("vgg19", "cifar10", num_workers=4, batch_size=128,
                          num_samples=512, seed=self.SEED),
            config(20.0, self.SEED),
        )
        assert_same_run(cell.execute(), oracle)

    def test_fig7_ablation_kwargs(self):
        cell = self.cell(
            "fig7", {"model": "resnet18", "setting": "serial+adaptive"}, "netmax",
            models=("resnet18",), num_workers=4, num_samples=512,
            max_sim_time=20.0,
        )
        oracle = run_trainer(
            "netmax",
            heterogeneous_scenario(4, seed=self.SEED),
            make_workload("resnet18", "cifar10", num_workers=4, batch_size=128,
                          num_samples=512, seed=self.SEED),
            config(20.0, self.SEED),
            overlap=False, adaptive=True,
        )
        assert_same_run(cell.execute(), oracle)

    def test_fig12_segments_and_step_decay(self):
        cell = self.cell(
            "fig12", {"dataset": "cifar100", "model": "resnet18"}, "adpsgd",
            num_workers=4, num_samples=1024, max_sim_time=20.0,
        )
        oracle = run_trainer(
            "adpsgd",
            heterogeneous_scenario(4, seed=self.SEED),
            make_workload("resnet18", "cifar100", num_workers=4,
                          partition="segments",
                          segments_per_worker=list(paper_segment_layout(4)),
                          batch_size=64, num_samples=1024, seed=self.SEED),
            config(20.0, self.SEED,
                   lr_schedule=StepDecayLR(0.1, milestones=(40.0,))),
        )
        assert_same_run(cell.execute(), oracle)

    def test_fig18_label_drops_and_constant_lr(self):
        cell = self.cell(
            "fig18", {"dataset": "mnist", "model": "mobilenet"}, "prague",
            num_workers=4, num_samples=512, max_sim_time=20.0,
        )
        oracle = run_trainer(
            "prague",
            heterogeneous_scenario(4, seed=self.SEED),
            make_workload("mobilenet", "mnist", num_workers=4,
                          partition="drop-labels",
                          lost_labels=list(PAPER_MNIST_LOST_LABELS[:4]),
                          batch_size=32, num_samples=512, seed=self.SEED),
            config(20.0, self.SEED, lr_schedule=ConstantLR(0.01)),
        )
        assert_same_run(cell.execute(), oracle)

    def test_fig19_multi_cloud(self):
        cell = self.cell(
            "fig19", {"model": "googlenet"}, "ps-asyn",
            models=("googlenet",), num_samples=512, max_sim_time=30.0,
        )
        scenario = multi_cloud_scenario()
        oracle = run_trainer(
            "ps-asyn",
            scenario,
            make_workload("googlenet", "mnist",
                          num_workers=scenario.num_workers,
                          partition="drop-labels",
                          lost_labels=list(PAPER_CLOUD_LOST_LABELS),
                          batch_size=32, num_samples=512, seed=self.SEED),
            config(30.0, self.SEED, lr_schedule=ConstantLR(0.01)),
        )
        assert_same_run(cell.execute(), oracle)

    def test_table5_mnist_row(self):
        cell = self.cell(
            "table5", {"dataset": "mnist", "model": "mobilenet"}, "allreduce",
            datasets=(("mnist", "mobilenet"),), num_workers=4,
            num_samples=512, max_sim_time=20.0,
        )
        oracle = run_trainer(
            "allreduce",
            heterogeneous_scenario(4, seed=self.SEED),
            make_workload("mobilenet", "mnist", num_workers=4,
                          partition="drop-labels",
                          lost_labels=list(PAPER_MNIST_LOST_LABELS[:4]),
                          batch_size=32, num_samples=512, seed=self.SEED),
            config(20.0, self.SEED, evaluations=20,
                   lr_schedule=ConstantLR(0.01)),
        )
        assert_same_run(cell.execute(), oracle)


class TestRegistry:
    def test_default_scale_grids_build_fast_with_distinct_cells(self):
        start = time.perf_counter()
        for experiment_id in PAPER_EXPERIMENTS:
            keys = [
                cell.cache_key()
                for _, spec in panels(experiment_id)
                for cell in spec.cells()
            ]
            assert keys and len(set(keys)) == len(keys), experiment_id
        assert time.perf_counter() - start < 1.0

    def test_unknown_scale_key_names_the_accepted_ones(self):
        with pytest.raises(TypeError, match="bogus.*accepted.*max_sim_time"):
            regenerate("fig5", bogus=1)

    def test_cli_names_are_the_registry(self):
        figure = build_parser()._subparsers._group_actions[0].choices["figure"]
        (name,) = [a for a in figure._actions if a.dest == "name"]
        assert set(name.help.split(", ")) == {*PAPER_EXPERIMENTS, "fig3"}
        beyond_paper = {name for name in PAPER_EXPERIMENTS
                        if not re.fullmatch(r"(fig|table)\d+", name)}
        assert beyond_paper == {"dyn-traces", "dyn-churn", "dyn-topology",
                                "dyn-edges", "compression"}

    def test_docs_table_lists_every_experiment(self):
        text = (DOCS / "paper_experiments.md").read_text()
        listed = re.findall(
            r"^\| `((?:fig|table)\d+|dyn-[a-z]+|compression)` \|", text, flags=re.M
        )
        assert sorted(listed) == sorted([*PAPER_EXPERIMENTS, "fig3"])

    def test_a_workload_that_cannot_run_fails_before_training(self, monkeypatch):
        """``repro figure fig13 --samples 512``: ImageNet has 1000 classes."""
        monkeypatch.setattr(
            SweepCell, "execute", lambda self: pytest.fail("a cell executed")
        )
        for experiment_id in ("fig13", "table5"):
            with pytest.raises(ValueError, match="1000 classes"):
                regenerate(experiment_id, num_samples=512)


class TestCacheAndBackends:
    """What the paper figures never had before they were sweep grids."""

    SCALE = dict(models=("resnet18",), num_workers=4, num_samples=512,
                 max_sim_time=15.0)

    def test_second_call_is_served_from_the_cache(self, tmp_path, monkeypatch):
        first = regenerate("fig5", cache_dir=str(tmp_path), **self.SCALE)
        monkeypatch.setattr(
            SweepCell, "execute", lambda self: pytest.fail("a cell executed")
        )
        again = regenerate("fig5", cache_dir=str(tmp_path), **self.SCALE)
        assert again.rows == first.rows

    @pytest.mark.slow
    def test_parallel_equals_sequential(self):
        scale = dict(num_workers=4, num_samples=512, max_sim_time=15.0)
        assert (regenerate("table6", parallel=2, **scale).rows
                == regenerate("table6", **scale).rows)


class TestOnePath:
    """Structural: one path from a paper figure to its numbers."""

    def test_the_fork_is_gone(self):
        gone = re.compile(
            r"run_trainer_jobs|_run_trainer_job|parallel_map|figures_cluster"
            r"|figures_noniid|experiments\.tables|experiments import tables"
            r"|figures_dynamics|figures_compression|FIGURE_FUNCTIONS"
        )
        hits = [
            f"{path.relative_to(SRC)}:{number}"
            for path in SRC.rglob("*.py")
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if gone.search(line)
        ]
        assert hits == []

    def test_experiments_are_declared_in_spec_types_only(self):
        text = (SRC / "experiments" / "paper.py").read_text()
        assert "make_workload(" not in text
        assert "TrainerConfig(" not in text

    def test_run_comparison_is_the_harness_own(self):
        named = sorted(
            path.name for path in (SRC / "experiments").glob("*.py")
            if "run_comparison" in path.read_text()
        )
        assert named == ["__init__.py", "harness.py"]

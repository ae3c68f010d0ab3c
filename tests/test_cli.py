"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro import experiments
from repro.cli import build_parser, main


def figure_names():
    """The names ``repro figure`` accepts: the registry, plus the analytic
    Fig. 3."""
    return {*experiments.PAPER_EXPERIMENTS, "fig3"}


def one_error_line(capsys) -> str:
    """The one stderr line a rejected command printed."""
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    return line


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.algorithms == ["netmax", "adpsgd"]
        assert args.workers == 8

    def test_figure_name_validated(self, capsys):
        assert main(["figure", "fig99"]) == 2
        line = one_error_line(capsys)
        assert "'fig99'" in line and "fig5" in line

    def test_every_paper_artifact_registered(self):
        expected = {f"fig{n}" for n in (3, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                        14, 15, 16, 17, 18, 19)}
        expected |= {"table2", "table3", "table5", "table6"}
        # Beyond-paper dynamics experiments (trace/churn/topology families).
        expected |= {"dyn-traces", "dyn-churn", "dyn-topology", "dyn-edges"}
        # The compress-vs-route comparison (ROADMAP item 4).
        expected |= {"compression"}
        assert figure_names() == expected

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.algorithms == ["netmax", "adpsgd"]
        assert args.seeds == [0, 1, 2, 3]
        assert args.scenarios == ["heterogeneous"]
        assert args.parallel is None
        assert not args.dry_run
        assert args.backend is None  # inferred: inline, or process w/ parallel
        # Queue defaults are spelled once, in QueueExecutor.
        assert args.num_queue_workers is None
        assert args.json_summary is None

    def test_sweep_backend_validated(self, capsys):
        assert main(["sweep", "--backend", "slurm", "--dry-run"]) == 2
        line = one_error_line(capsys)
        assert "'slurm'" in line and "queue" in line

    def test_sweep_worker_requires_queue_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep-worker"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--scenarios", "mesh", "--dry-run"],
        ["compare", "--scenario", "mesh"],
    ], ids=["sweep", "compare"])
    def test_sweep_scenario_validated(self, argv, capsys):
        assert main(argv) == 2
        line = one_error_line(capsys)
        assert "'mesh'" in line and "heterogeneous" in line


class TestCommands:
    def test_figure_fig3(self, capsys):
        assert main(["figure", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "resnet18" in out
        assert "[fig3]" in out

    def test_figure_table_runs_in_parallel(self, capsys):
        """fig12/13/16/17 and the four tables used to ignore --parallel."""
        code = main(["figure", "table6", "--parallel", "2",
                     "--sim-time", "20", "--samples", "512"])
        captured = capsys.readouterr()
        assert code == 0
        assert "[table6]" in captured.out

    @pytest.mark.parametrize("sim_time, noted", [
        ("30", True), ("60", True), ("61", False),
    ])
    def test_figure_notes_a_netmax_that_never_replans(
        self, capsys, monkeypatch, sim_time, noted
    ):
        """Regression: within one 60 s monitor period fig5 reported NetMax
        on its uniform fallback without a word. Only the note is checked:
        the panels are planned, not run."""
        monkeypatch.setattr(
            experiments.paper, "run_panels",
            lambda *args, **kwargs: experiments.ExperimentOutput("fig5", "ran", (), []),
        )
        assert main(["figure", "fig5", "--sim-time", sim_time,
                     "--samples", "512"]) == 0
        captured = capsys.readouterr()
        assert "[fig5] ran" in captured.out
        expected = ["note: fig5 runs netmax with a monitor period >= the "
                    "horizon, so no policy is adopted: uniform peer "
                    "selection throughout"]
        assert captured.err.splitlines() == (expected if noted else [])

    @pytest.mark.parametrize("argv, flag", [
        (["fig3", "--sim-time", "10"], "--sim-time"),
        (["fig3", "--parallel", "2"], "--parallel"),
        (["fig3", "--seed", "1"], "--seed"),
    ])
    def test_figure_flag_it_does_not_read_exits_2(
        self, capsys, monkeypatch, argv, flag
    ):
        """fig3 reads no flag; it used to exit 0 with the flag ignored."""
        monkeypatch.setattr(
            experiments, "figure3_iteration_time",
            lambda **_: pytest.fail("the figure ran"),
        )
        assert main(["figure", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--algorithms", "adpsgd", "--seeds", "0", "--workers", "4",
          "--sim-time", "2", "--dataset", "imagenet", "--samples", "512"],
         "1000 classes"),
        (["sweep", "--algorithms", "adpsgd", "--seeds", "0", "--workers", "4",
          "--sim-time", "2", "--dataset", "foo", "--samples", "512"],
         "unknown dataset 'foo'"),
        (["sweep", "--algorithms", "adpsgd", "--seeds", "0", "--workers", "4",
          "--sim-time", "2", "--model", "foo", "--samples", "512"],
         "unknown model 'foo'"),
        (["figure", "fig13", "--samples", "512"], "1000 classes"),
    ])
    def test_unbuildable_workload_is_a_one_line_error(self, capsys, argv, message):
        """What cannot run must not pass --dry-run, nor die in a traceback."""
        dry_runs = [argv, argv + ["--dry-run"]] if argv[0] == "sweep" else [argv]
        for spelled in dry_runs:
            assert main(spelled) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("kind, workers, params, seeds, message", [
        ("heterogeneous", 4, ["num_slow_links=0"], ["0"], "num_slow_links must be >= 1"),
        ("heterogeneous", 4, ["slowdown_low=0.5"], ["0"], "1 <= low <= high"),
        ("churn", 4, ["downtime_s=700"], ["0"], "does not fit 2 departure window"),
        ("heterogeneous", 4, ["edge_failures=-1"], ["0"], "num_failures must be >= 0"),
        # Seed 0 draws a tree: no edge can fail without disconnecting it.
        ("heterogeneous", 6,
         ["topology=random", "edge_probability=0.05", "edge_failures=1"],
         ["0", "1", "2", "3", "4", "5"], "at seed 0: .*bridge"),
        ("heterogeneous", 4, ["topology=star", "edge_failures=1"], ["0"], "bridge"),
        ("homogeneous", 2, ["topology=ring"], ["0"], "ring topology needs at least 3"),
        ("heterogeneous", 3, ["topology=expander"], ["0"],
         "expander topology needs at least 4"),
        ("heterogeneous", 4, ["topology=torus"], ["0"], "unknown topology kind 'torus'"),
        ("heterogeneous", 4, ["compression=gzip"], ["0"], "unknown compression op"),
        ("heterogeneous", 8, ["topology=ring", "degree_skew=0.5"], ["0"],
         "parameter 'degree_skew'"),
        ("heterogeneous", 4, ["topology=ring", "edge_events=0-1@2"], ["0"],
         "parameter 'edge_events'"),
        ("heterogeneous", 4, ["period_s=nan"], ["0"], "'period_s' must be finite"),
        ("homogeneous", 8, ["topology=small-world"], ["0"],
         "unknown topology kind 'small-world'"),
        ("multi-cloud", 6, ["topology=hypercube"], ["0"],
         "unknown topology kind 'hypercube'"),
        ("trace-diurnal", 4, ["latency_s=-0.5"], ["0"],
         "latencies must be finite and non-negative"),
        ("trace-burst", 4, ["base_gbps=0"], ["0"], "bandwidth must be positive"),
        ("trace-random-walk", 4, ["step_s=0"], ["0"],
         "duration_s and step_s must be positive"),
    ])
    def test_unbuildable_scenario_fails_the_dry_run(
        self, capsys, kind, workers, params, seeds, message
    ):
        """Any spec that passes --dry-run must run: SweepSpec builds every
        (scenario, seed), so these fail there with one error line."""
        import re

        from repro.experiments.sweeps import ScenarioSpec, SweepSpec

        with pytest.raises(ValueError, match=message):
            SweepSpec(
                algorithms=("adpsgd",), seeds=tuple(map(int, seeds)),
                scenarios=(ScenarioSpec(kind, workers, tuple(
                    param.split("=", 1) for param in params
                )),),
            )
        argv = ["sweep", "--algorithms", "adpsgd", "--workers", str(workers),
                "--sim-time", "2", "--scenarios", kind, "--seeds", *seeds]
        for param in params:
            argv += ["--scenario-param", param]
        assert main(argv + ["--dry-run"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and re.search(message, line), line

    @pytest.mark.parametrize("command, flags, message", [
        pytest.param(command, flags, message, id=f"{command} {' '.join(flags)}")
        for command in ("sweep", "compare")
        for flags, message in (
            (["--sim-time", "0"], "max_sim_time must be positive"),
            (["--sim-time", "-1"], "max_sim_time must be positive"),
            (["--max-epochs", "0"], "max_epochs must be positive"),
            (["--batch-size", "0"], "batch_size must be >= 1"),
            (["--algorithms", "adpsgd", "adpsgd"], "repeated algorithm(s) ['adpsgd']"),
            (["--algorithms", "netmax", "adpsgd", "NetMax"],
             "repeated algorithm(s) ['netmax']"),
            (["--seeds", "0", "1", "0"], "repeated seed(s) [0]"),
            (["--scenarios", "trace-diurnal", "--scenario-param", "latency_s=nan"],
             "'latency_s' must be finite"),
            (["--scenarios", "trace-random-walk", "--scenario-param", "latency_s=inf"],
             "'latency_s' must be finite"),
            (["--scenarios", "trace-burst", "--scenario-param", "base_gbps=nan"],
             "'base_gbps' must be finite"),
            (["--scenarios", "trace-diurnal", "--scenario-param", "step_s=inf"],
             "'step_s' must be finite"),
        )
        if not (command == "compare" and flags[0] in ("--max-epochs", "--seeds"))
    ])
    def test_run_settings_that_cannot_run_exit_2(
        self, capsys, monkeypatch, command, flags, message
    ):
        """What --dry-run lists must run: these settings used to pass the
        dry run and die in a traceback in every cell (compare reads no
        --max-epochs). A repeated seed or algorithm used to run its cells
        twice and report the repeat as a second seed with zero spread. A
        trace family's NaN or infinite latency, bandwidth or step is refused
        before any cell runs, not as an event delay mid-run."""
        from repro.experiments.sweeps import SweepCell

        monkeypatch.setattr(
            SweepCell, "execute", lambda self: pytest.fail("a cell ran")
        )
        if command == "compare":
            flags = ["--scenario" if f == "--scenarios" else f for f in flags]
        argv = [command, "--algorithms", "adpsgd", "--workers", "4",
                "--samples", "64", "--sim-time", "2"]
        if command == "sweep":
            argv += ["--seeds", "0"]
        argv += flags  # a repeated flag overrides the default above
        spellings = [argv, argv + ["--dry-run"]] if command == "sweep" else [argv]
        for spelled in spellings:
            assert main(spelled) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ") and message in line, line

    def test_compare_tiny(self, capsys):
        code = main([
            "compare", "--algorithms", "adpsgd", "allreduce",
            "--model", "mobilenet", "--dataset", "mnist",
            "--workers", "4", "--batch-size", "32",
            "--samples", "512", "--sim-time", "15",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "adpsgd" in out and "allreduce" in out

    @pytest.mark.parametrize("algorithms", [
        ["gossipx", "adpsgd"],
        ["adpsgd", "gossipx"],
        ["adpsgd", "netmax", "gossipx"],
    ])
    def test_compare_rejects_unknown_algorithm_upfront(
        self, capsys, monkeypatch, algorithms
    ):
        """Anywhere in the list: compare used to train the algorithms before
        it and then die in a KeyError traceback."""
        from repro.experiments.sweeps import SweepCell

        monkeypatch.setattr(
            SweepCell, "execute", lambda self: pytest.fail("a cell ran")
        )
        assert main(["compare", "--algorithms", *algorithms, "--workers", "4",
                     "--samples", "64", "--sim-time", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: unknown algorithm(s) ['gossipx']")

    def test_compare_netmax_adopts_a_policy(self, monkeypatch, capsys):
        """A horizon under four monitor periods scales NetMax's period, as
        `repro sweep` does: at 60 s compare used to run NetMax on its
        uniform fallback (one tick published, no policy adopted)."""
        import repro.cli as cli

        sweeps = []
        real_run_sweep = cli.run_sweep

        def capturing(*args, **kwargs):
            sweeps.append(real_run_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(cli, "run_sweep", capturing)
        assert main([
            "compare", "--algorithms", "adpsgd", "netmax", "--model",
            "mobilenet", "--dataset", "mnist", "--workers", "4",
            "--batch-size", "32", "--samples", "256", "--sim-time", "60",
        ]) == 0
        assert "monitor_period_s = 15" in capsys.readouterr().err
        (sweep,) = sweeps
        adopted = {outcome.cell.algorithm: outcome.result.extras.get("policies_adopted")
                   for outcome in sweep.outcomes}
        assert adopted["netmax"] >= 1

    def test_compare_rows_are_the_sweep_cells_rows(self, monkeypatch):
        """compare is a one-seed sweep: its table is what the paper reducer
        gives for the cells of the same grid, each executed on its own."""
        import repro.cli as cli
        from repro.experiments import paper
        from repro.experiments.sweeps import (
            CellOutcome,
            RunSpec,
            ScenarioSpec,
            SweepResult,
            SweepSpec,
            WorkloadSpec,
        )

        tables = []
        monkeypatch.setattr(
            cli, "render_table",
            lambda headers, rows, title: tables.append((headers, rows, title)),
        )
        assert main([
            "compare", "--algorithms", "adpsgd", "allreduce", "--model",
            "mobilenet", "--dataset", "mnist", "--workers", "4",
            "--batch-size", "32", "--samples", "256", "--sim-time", "5",
            "--seed", "3", "--scenario", "homogeneous",
        ]) == 0
        ((headers, rows, title),) = tables
        assert title == "homogeneous-4w: mobilenet on mnist"
        spec = SweepSpec(
            algorithms=("adpsgd", "allreduce"), seeds=(3,),
            scenarios=(ScenarioSpec("homogeneous", 4),),
            workload=WorkloadSpec("mobilenet", "mnist", 32, 256),
            run=RunSpec(max_sim_time=5.0),
        )
        sweep = SweepResult(spec, [
            CellOutcome(cell, cell.execute(), False, 0.0) for cell in spec.cells()
        ])
        expected = paper._rows([({}, sweep)], headers=headers, speedup_vs="adpsgd")
        assert headers[-1] == "speedup_vs_adpsgd"
        np.testing.assert_equal(rows, expected["rows"])

    def test_compare_and_sweep_build_one_spec(self, capsys, monkeypatch):
        """compare is `sweep --seeds <seed> --scenarios <scenario>`: the same
        flags give the same SweepSpec, monitor-period note included."""
        import repro.cli as cli

        specs = []

        def capturing(spec, **_):
            specs.append(spec)
            raise RuntimeError("captured")

        monkeypatch.setattr(cli, "run_sweep", capturing)
        # The two commands default to different models, so name one.
        shared = ["--algorithms", "adpsgd", "netmax", "--model", "mobilenet",
                  "--dataset", "mnist", "--batch-size", "32", "--workers", "4",
                  "--samples", "64", "--sim-time", "20",
                  "--scenario-param", "amplitude=0.4"]
        with pytest.raises(RuntimeError, match="captured"):
            main(["compare", *shared, "--seed", "5", "--scenario", "trace-diurnal"])
        compare_err = capsys.readouterr().err
        assert main(["sweep", *shared, "--seeds", "5",
                     "--scenarios", "trace-diurnal"]) == 1
        sweep_note = capsys.readouterr().err.splitlines()[0]
        compare_spec, sweep_spec = specs
        assert compare_spec == sweep_spec
        assert compare_spec.seeds == (5,)
        assert dict(compare_spec.trainer_kwargs) == {
            "netmax": (("monitor_period_s", 5.0),)
        }
        assert compare_err.splitlines() == [sweep_note]
        assert "monitor_period_s = 5" in sweep_note

    def test_sweep_rejects_unknown_algorithm_upfront(self, capsys):
        code = main(["sweep", "--algorithms", "gossipx", "--dry-run"])
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_sweep_dry_run_lists_cells(self, capsys):
        code = main([
            "sweep", "--algorithms", "adpsgd", "allreduce",
            "--seeds", "0", "1", "--workers", "4", "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 cell(s)" in out
        assert "adpsgd" in out and "allreduce" in out

    def test_sweep_tiny_run_with_cache(self, tmp_path, capsys):
        argv = [
            "sweep", "--algorithms", "adpsgd", "--seeds", "0", "1",
            "--workers", "4", "--model", "mobilenet", "--dataset", "mnist",
            "--samples", "256", "--sim-time", "10",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 cell(s) executed, 0 from cache" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 cell(s) executed, 2 from cache" in second

        # Cached and fresh aggregate to the same numbers; only the trailing
        # cell_time telemetry columns (measured wall clock) and the
        # wall-time note may differ.
        def metric_columns(text):
            return [
                [cell.strip() for cell in line.split(" | ")[:9]]
                for line in text.splitlines() if " | " in line
            ]

        assert metric_columns(first) == metric_columns(second)

    def test_sweep_json_summary_dry_run(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0", "1",
            "--workers", "4", "--dry-run", "--json-summary", str(summary_path),
        ])
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary == {
            "cells": 2, "executed": 0, "cached": 0,
            "backend": "dry-run", "wall_s": 0.0,
        }

    def test_sweep_json_summary_real_run(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        argv = [
            "sweep", "--algorithms", "adpsgd", "--seeds", "0",
            "--workers", "4", "--samples", "256", "--sim-time", "10",
            "--cache-dir", str(tmp_path / "cache"),
            "--json-summary", str(summary_path),
        ]
        assert main(argv) == 0
        first = json.loads(summary_path.read_text())
        assert first["cells"] == 1 and first["executed"] == 1
        assert first["cached"] == 0 and first["backend"] == "inline"
        assert first["wall_s"] > 0.0
        assert main(argv) == 0
        second = json.loads(summary_path.read_text())
        assert second["executed"] == 0 and second["cached"] == 1

    def test_default_sweep_cell_adopts_a_policy(self, monkeypatch, capsys):
        """`repro sweep` at its default --sim-time (60 = NetMax's default
        monitor period) must not compare NetMax on its uniform fallback: the
        sweep path scales the period to the horizon and says so."""
        import repro.cli as cli

        sweeps = []
        real_run_sweep = cli.run_sweep

        def capturing(*args, **kwargs):
            sweeps.append(real_run_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(cli, "run_sweep", capturing)
        assert main([
            "sweep", "--algorithms", "netmax", "adpsgd-monitor", "adpsgd",
            "--seeds", "0", "--samples", "256",
        ]) == 0
        assert "monitor_period_s = 15" in capsys.readouterr().err
        adopted = {
            outcome.cell.algorithm: outcome.result.extras.get("policies_adopted")
            for outcome in sweeps[0].outcomes
        }
        assert adopted["netmax"] >= 1 and adopted["adpsgd-monitor"] >= 1
        assert adopted["adpsgd"] is None
        # Four or more default periods fit: the library default stands.
        assert main(["sweep", "--sim-time", "240", "--dry-run"]) == 0
        assert "monitor_period_s" not in capsys.readouterr().err

    def test_sweep_queue_backend_requires_queue_dir(self, capsys):
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0",
            "--backend", "queue",
        ])
        assert code == 2
        assert "--queue-dir" in capsys.readouterr().err

    def test_sweep_queue_backend_end_to_end(self, tmp_path, capsys):
        """--backend queue with local workers through the real CLI, then a
        sweep-worker invocation against the drained queue exits cleanly."""
        summary_path = tmp_path / "summary.json"
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0", "1",
            "--workers", "4", "--samples", "256", "--sim-time", "10",
            "--backend", "queue", "--queue-dir", str(tmp_path / "q"),
            "--num-queue-workers", "2", "--lease-timeout-s", "10",
            "--json-summary", str(summary_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cell(s) executed" in out
        assert "(queue backend)" in out
        summary = json.loads(summary_path.read_text())
        assert summary["backend"] == "queue"
        assert summary["executed"] == 2 and summary["cached"] == 0

    def test_sweep_worker_drains_prepared_queue(self, tmp_path, capsys):
        """A bare `repro sweep-worker` joins a queue another process set up
        (here: the coordinator pieces called directly) and executes cells."""
        from repro.experiments.executors import ResultCache, WorkQueue
        from repro.experiments.sweeps import (
            RunSpec, ScenarioSpec, SweepSpec, WorkloadSpec,
        )

        spec = SweepSpec(
            algorithms=("adpsgd",), seeds=(0,),
            scenarios=(ScenarioSpec("heterogeneous", 4),),
            workload=WorkloadSpec(num_samples=256),
            run=RunSpec(max_sim_time=10.0, eval_interval_s=5.0),
        )
        (cell,) = spec.cells()
        queue = WorkQueue(str(tmp_path / "q"))
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3, lease_timeout_s=30.0, run_id="test-run",
        )
        queue.enqueue(cell, run="test-run")
        summary_path = tmp_path / "worker.json"
        code = main([
            "sweep-worker", "--queue-dir", str(tmp_path / "q"),
            "--poll-interval-s", "0.02", "--drain-timeout-s", "0.2",
            "--json-summary", str(summary_path),
        ])
        assert code == 0
        assert "1 cell(s) executed" in capsys.readouterr().out
        summary = json.loads(summary_path.read_text())
        assert summary["executed"] == 1 and summary["failed"] == 0
        cache = ResultCache(queue.default_results_dir())
        assert cache.load(cell.cache_key()) is not None

    def test_failed_sweep_overwrites_stale_json_summary(self, tmp_path, capsys):
        """A failing run must not leave a previous success payload in the
        summary file: it is rewritten with an error marker."""
        from repro.experiments.executors import QueueCellError
        from unittest import mock

        summary_path = tmp_path / "summary.json"
        summary_path.write_text('{"executed": 99}')  # stale success payload
        with mock.patch(
            "repro.cli.run_sweep",
            side_effect=QueueCellError("cell x exhausted its retry budget"),
        ):
            code = main([
                "sweep", "--algorithms", "adpsgd", "--seeds", "0",
                "--workers", "4", "--samples", "256", "--sim-time", "10",
                "--json-summary", str(summary_path),
            ])
        assert code == 1
        assert "retry budget" in capsys.readouterr().err
        summary = json.loads(summary_path.read_text())
        assert "error" in summary and "executed" not in summary
        assert summary["cells"] == 1 and summary["backend"] == "inline"

    def test_sweep_unbuildable_grid_rejected_before_queueing(self, tmp_path, capsys):
        """Spec-time validation still runs ahead of the queue backend: an
        unrunnable grid exits 2 without writing any broker state."""
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0",
            "--workers", "3",  # multi-cloud needs exactly 6 workers
            "--scenarios", "multi-cloud",
            "--backend", "queue", "--queue-dir", str(tmp_path / "q"),
        ])
        assert code == 2
        assert "6 workers" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()

    def test_policy_from_csv(self, tmp_path, capsys):
        times = np.full((4, 4), 1.0)
        times[0, 1] = times[1, 0] = 0.1
        np.fill_diagonal(times, 0.05)
        csv = tmp_path / "times.csv"
        np.savetxt(csv, times, delimiter=",")
        assert main(["policy", "--times", str(csv), "--alpha", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "lambda2" in out

    def test_policy_rejects_non_square(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        np.savetxt(csv, np.ones((2, 3)), delimiter=",")
        assert main(["policy", "--times", str(csv)]) == 2

    @staticmethod
    def _ring_times(m=4):
        times = np.zeros((m, m))
        for i in range(m):
            times[i, (i + 1) % m] = times[(i + 1) % m, i] = 1.0
        times[0, 1] = times[1, 0] = 0.2
        return times

    def _policy_exit(self, tmp_path, times, *flags):
        csv = tmp_path / "times.csv"
        np.savetxt(csv, times, delimiter=",")
        return main(["policy", "--times", str(csv), *flags])

    def test_policy_sparse_csv_solves_on_its_graph(self, tmp_path, capsys):
        """A zero off-diagonal entry is a missing edge, not a zero time."""
        assert self._policy_exit(tmp_path, self._ring_times()) == 0
        out = capsys.readouterr().out
        assert "rho=" in out
        rows = np.array(
            [[float(x) for x in line.strip(" []").split()]
             for line in out.splitlines()[1:]]
        )
        assert rows[0, 2] == rows[1, 3] == 0.0  # the ring's two non-edges

    @pytest.mark.parametrize("kind", [
        "asymmetric", "disconnected", "infeasible",
        "missing", "non-numeric", "ragged",
    ])
    def test_policy_bad_csv_exits_2_with_one_error_line(self, tmp_path, capsys, kind):
        times, flags = self._ring_times(), []
        unreadable = {
            "missing": None,
            "non-numeric": "0,1,1\n1,0,x\n1,1,0\n",
            "ragged": "0,1,1\n1,0\n1,1,0\n",
        }
        if kind in unreadable:
            csv = tmp_path / "times.csv"
            if unreadable[kind] is not None:
                csv.write_text(unreadable[kind])
            assert main(["policy", "--times", str(csv)]) == 2
        else:
            if kind == "asymmetric":
                times[2, 3] = 0.0
            elif kind == "disconnected":
                times[1, 2] = times[2, 1] = times[3, 0] = times[0, 3] = 0.0
            else:  # a one-step rho grid sits on L == U, where no LP is feasible
                times, flags = np.ones((4, 4)), ["--outer-rounds", "1"]
            assert self._policy_exit(tmp_path, times, *flags) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestSweepService:
    """CLI surface of the long-lived queue service: sweep-status, lease
    batches, the lease-timeout floor, and streaming summaries."""

    def test_service_parser_defaults(self):
        sweep = build_parser().parse_args(["sweep"])
        assert sweep.lease_batch is None  # QueueExecutor's default
        assert sweep.stream_interval_s == 0.0
        worker = build_parser().parse_args(["sweep-worker", "--queue-dir", "q"])
        assert worker.lease_batch is None  # coordinator's published setting

    def test_sweep_status_requires_queue_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep-status"])

    def test_sweep_status_rejects_missing_directory(self, tmp_path, capsys):
        code = main(["sweep-status", "--queue-dir", str(tmp_path / "nope")])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--poll-interval-s", "0", "poll_interval_s"),
        ("--poll-interval-s", "-1", "poll_interval_s"),
        # Regression: inf died in the idle wait with an OverflowError
        # traceback; nan was already rejected by the > 0 test.
        ("--poll-interval-s", "inf", "poll_interval_s"),
        ("--poll-interval-s", "nan", "poll_interval_s"),
        # Regression: finite but so long that the idle wait overflowed
        # ("timestamp out of range for platform time_t").
        ("--poll-interval-s", "1e300", "poll_interval_s"),
        ("--drain-timeout-s", "-1", "drain_timeout_s"),
        ("--lease-batch", "0", "lease_batch"),
    ])
    def test_sweep_worker_rejects_values_that_spin_or_clamp(
        self, tmp_path, capsys, flag, value, name
    ):
        """Regression: a poll interval of 0 or below made an idle worker
        spin without sleeping, and --lease-batch 0 was silently clamped to
        1. Each now exits 2 with one error line, before touching the
        queue directory."""
        code = main(["sweep-worker", "--queue-dir", str(tmp_path / "q"),
                     "--drain-timeout-s", "0.1", flag, value])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and name in line
        assert not (tmp_path / "q").exists()

    def test_unknown_backend_is_named_before_the_flags_it_would_read(
        self, capsys
    ):
        """Regression: --backend nosuch --parallel 2 exited 2 with
        "--backend nosuch does not read --parallel", not naming the
        unknown backend."""
        assert main(["sweep", "--backend", "nosuch", "--parallel", "2",
                     "--dry-run"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: unknown sweep backend 'nosuch'")

    @pytest.mark.parametrize("backend, flag, value", [
        *[(backend, "--parallel", "4") for backend in ("inline", "batched", "queue")],
        *[(backend, flag, value)
          for backend in ("inline", "process", "batched")
          for flag, value in (("--queue-dir", "q"), ("--num-queue-workers", "2"),
                              ("--lease-timeout-s", "10"), ("--lease-batch", "4"),
                              ("--max-attempts", "2"))],
    ])
    def test_sweep_flag_its_backend_does_not_read_exits_2(
        self, tmp_path, capsys, monkeypatch, backend, flag, value
    ):
        """Regression: e.g. --backend inline --parallel 4 ran sequentially
        and --lease-batch 4 without --backend queue was ignored, both with
        exit 0."""
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--algorithms", "adpsgd", "--seeds", "0",
                "--workers", "2", "--samples", "64", "--sim-time", "2",
                "--scenarios", "heterogeneous-static", "--backend", backend,
                flag, value]
        if backend == "queue":
            argv += ["--queue-dir", "q"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"error: --backend {backend} does not read {flag}"

    def test_lease_timeout_floor_rejected_with_exit_2(self, tmp_path, capsys):
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0",
            "--backend", "queue", "--queue-dir", str(tmp_path / "q"),
            "--lease-timeout-s", "0.5",
        ])
        assert code == 2
        assert "lease_timeout_s" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "1e300"])
    def test_non_finite_lease_timeout_rejected_with_exit_2(
        self, tmp_path, capsys, value
    ):
        """Regression: a NaN lease timeout passed the floor test (every
        comparison with NaN is False) and then made every live lease look
        stale, failing a healthy cell ("heartbeat frozen for 0.0s"); an
        infinite one killed the lease heartbeat thread with an
        OverflowError, and so did a finite one whose heartbeat wait (a
        third of it) exceeds the longest timeout a wait takes. Each now
        exits 2 with one error line, before the queue directory is made."""
        code = main([
            "sweep", "--algorithms", "saps", "--seeds", "0",
            "--scenarios", "heterogeneous-static", "--workers", "8",
            "--samples", "512", "--sim-time", "60", "--backend", "queue",
            "--queue-dir", str(tmp_path / "q"), "--num-queue-workers", "1",
            "--lease-timeout-s", value, "--max-attempts", "1",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "lease_timeout_s" in line
        assert not (tmp_path / "q").exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_executor_settings_fail_before_the_note_and_the_dry_run(
        self, tmp_path, capsys, dry_run
    ):
        """Regression: the executor was built after the grid, so a dry run
        listed cells its real run refused (exit 0, then exit 2), and a real
        run printed netmax's monitor-period note before its error line."""
        code = main([
            "sweep", "--algorithms", "netmax", "--seeds", "0",
            "--backend", "queue", "--queue-dir", str(tmp_path / "q"),
            "--lease-timeout-s", "1e300", *dry_run,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "lease_timeout_s" in line
        assert not (tmp_path / "q").exists()

    def test_sweep_status_reports_prepared_queue(self, tmp_path, capsys):
        from repro.experiments.executors import WorkQueue
        from repro.experiments.sweeps import (
            RunSpec, ScenarioSpec, SweepSpec, WorkloadSpec,
        )

        spec = SweepSpec(
            algorithms=("adpsgd",), seeds=(0, 1),
            scenarios=(ScenarioSpec("heterogeneous", 4),),
            workload=WorkloadSpec(num_samples=256),
            run=RunSpec(max_sim_time=10.0, eval_interval_s=5.0),
        )
        queue = WorkQueue(str(tmp_path / "q"))
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3, lease_timeout_s=30.0, run_id="status-run",
        )
        for cell in spec.cells():
            queue.enqueue(cell, run="status-run")
        queue.claim_batch(1)

        assert main(["sweep-status", "--queue-dir", str(tmp_path / "q")]) == 0
        out = capsys.readouterr().out
        assert "1 pending, 1 leased, 0 completed, 0 failed, 0 reclaimed" in out
        assert ("run status-run [active]: 1 pending, 1 leased, 0 retrying, "
                "0 quarantined") in out
        assert "STOP" not in out

        code = main([
            "sweep-status", "--queue-dir", str(tmp_path / "q"), "--json",
        ])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["pending"] == 1 and snapshot["leased"] == 1
        (run,) = snapshot["runs"]
        assert run["run_id"] == "status-run" and run["active"] is True

    def test_sweep_streaming_summary_and_table(self, tmp_path, capsys):
        """--json-summary updates in place while cells land (marked
        in_progress) and the final write drops the marker; with
        --stream-interval-s the aggregate table re-renders to stderr."""
        summary_path = tmp_path / "summary.json"
        seen = []

        from repro import cli as cli_module
        original = cli_module._write_json_summary

        def spy(path, payload):
            original(path, payload)
            if path is not None:
                seen.append(payload)

        from unittest import mock
        with mock.patch.object(cli_module, "_write_json_summary", spy):
            code = main([
                "sweep", "--algorithms", "adpsgd", "--seeds", "0", "1",
                "--workers", "4", "--samples", "256", "--sim-time", "10",
                "--cache-dir", str(tmp_path / "cache"),
                "--json-summary", str(summary_path),
                "--stream-interval-s", "0.0001",
            ])
        assert code == 0
        err = capsys.readouterr().err
        assert "(streaming)." in err  # mid-drain table re-renders
        assert [p.get("in_progress") for p in seen] == [True, True, None]
        final = json.loads(summary_path.read_text())
        assert "in_progress" not in final
        assert final["cells"] == 2 and final["executed"] == 2

    def test_sweep_lease_batch_flag_reaches_executor(self, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0",
            "--workers", "4", "--samples", "256", "--sim-time", "10",
            "--backend", "queue", "--queue-dir", str(tmp_path / "q"),
            "--lease-batch", "4", "--lease-timeout-s", "10",
            "--json-summary", str(summary_path),
        ])
        assert code == 0
        assert "lease batch 4" in capsys.readouterr().err
        summary = json.loads(summary_path.read_text())
        assert summary["executed"] == 1 and summary["backend"] == "queue"


class TestScenarioParamCLI:
    def test_dry_run_enumerates_full_cross_product(self, capsys):
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0", "--workers", "4",
            "--scenarios", "heterogeneous", "trace-diurnal", "churn",
            "--scenario-param", "trace-diurnal:amplitude=0.2,0.8",
            "--scenario-param", "trace-diurnal:period_s=100,200",
            "--scenario-param", "churn:downtime_s=10",
            "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # 1 heterogeneous + 2x2 trace-diurnal + 1 churn = 6 scenario cells.
        assert "6 cell(s)" in out
        assert "amplitude=0.2,period_s=100.0" in out
        assert "amplitude=0.8,period_s=200.0" in out
        assert "churn-4w[downtime_s=10.0]" in out

    def test_unprefixed_param_applies_to_accepting_families(self, capsys):
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0", "--workers", "4",
            "--scenarios", "trace-diurnal", "trace-burst",
            "--scenario-param", "base_gbps=0.5",
            "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace-diurnal-4w[base_gbps=0.5]" in out
        assert "trace-burst-4w[base_gbps=0.5]" in out

    def test_param_unknown_to_all_families_rejected(self, capsys):
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0",
            "--scenarios", "heterogeneous", "--scenario-param", "warp=9",
            "--dry-run",
        ])
        assert code == 2
        assert "warp" in capsys.readouterr().err

    def test_prefixed_family_must_be_selected(self, capsys):
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0",
            "--scenarios", "heterogeneous",
            "--scenario-param", "churn:downtime_s=10",
            "--dry-run",
        ])
        assert code == 2
        assert "not among --scenarios" in capsys.readouterr().err

    def test_compare_with_scenario_family(self, capsys):
        code = main([
            "compare", "--algorithms", "adpsgd", "--workers", "4",
            "--samples", "256", "--batch-size", "32", "--sim-time", "5",
            "--scenario", "trace-diurnal", "--scenario-param", "amplitude=0.4",
        ])
        assert code == 0
        assert "trace-diurnal-4w" in capsys.readouterr().out

    def test_compare_scenario_param_needs_scenario(self, capsys):
        """--scenario defaults to heterogeneous, which has no amplitude."""
        code = main([
            "compare", "--algorithms", "adpsgd",
            "--scenario-param", "amplitude=0.4",
        ])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "'amplitude'" in line

    @pytest.mark.parametrize("name, markers", [
        ("dyn-traces", ("trace-burst", "trace-diurnal", "heterogeneous-8w")),
        ("dyn-churn", ("churn-8w", "downtime_s")),
        # Sync trainers compete on sparse graphs too.
        ("dyn-topology", ("topology=ring", "topology=star", "allreduce")),
        # A sparse graph so failures matter; winners quote mean +- std.
        ("dyn-edges", ("edge_failures=2", "edge_failures=5", "topology=ring", "+-")),
        # All four quadrants of the compress/route square.
        ("compression", ("adpsgd", "netmax", "compression=topk",
                         "slowdown_high=4.0", "Lowest mean final loss")),
    ])
    def test_beyond_paper_figure_smoke(self, capsys, name, markers):
        code = main(["figure", name, "--sim-time", "8", "--samples", "256"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"[{name}]" in out
        for marker in markers:
            assert marker in out

    def test_compare_churn_with_synchronous_algorithm_runs(self, capsys):
        """Synchronous trainers run churn round-based now (no carve-out)."""
        code = main([
            "compare", "--algorithms", "allreduce", "--workers", "4",
            "--samples", "256", "--batch-size", "32", "--sim-time", "5",
            "--scenario", "churn",
            "--scenario-param", "horizon_s=5",
            "--scenario-param", "downtime_s=1",
            "--scenario-param", "num_departures=1",
        ])
        assert code == 0
        assert "churn-4w" in capsys.readouterr().out

    def test_sweep_churn_with_synchronous_algorithm_passes_dry_run(self, capsys):
        code = main([
            "sweep", "--algorithms", "allreduce", "--seeds", "0",
            "--workers", "4", "--scenarios", "churn", "--dry-run",
        ])
        assert code == 0
        assert "churn-4w" in capsys.readouterr().out

    def test_sweep_topology_axis_dry_run(self, capsys):
        """The topology axis cross-products per cell like any other param."""
        code = main([
            "sweep", "--algorithms", "netmax", "--seeds", "0",
            "--workers", "4", "--scenarios", "heterogeneous",
            "--scenario-param", "topology=full,ring,star", "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 cell(s)" in out
        assert "topology=ring" in out and "topology=star" in out

    def test_sweep_grid_dedupes_inert_param_combos(self, capsys):
        """edge_probability is inert for non-randomized topologies, so the
        cross-product must enumerate each canonical cell exactly once."""
        code = main([
            "sweep", "--algorithms", "netmax", "--seeds", "0",
            "--workers", "4", "--scenarios", "heterogeneous",
            "--scenario-param", "topology=full,ring,random",
            "--scenario-param", "edge_probability=0.1,0.9",
            "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # full and ring collapse their two edge_probability spellings;
        # random keeps both: 1 + 1 + 2 = 4 distinct cells.
        assert "4 cell(s)" in out

    def test_sweep_unbuildable_topology_fails_dry_run(self, capsys):
        """A ring on two workers must die at spec time."""
        code = main([
            "sweep", "--algorithms", "netmax", "--seeds", "0",
            "--workers", "2", "--scenarios", "heterogeneous",
            "--scenario-param", "topology=ring", "--dry-run",
        ])
        assert code == 2
        assert "ring topology needs at least 3" in capsys.readouterr().err

    def test_compare_rejects_foreign_family_prefix(self, capsys):
        code = main([
            "compare", "--algorithms", "adpsgd", "--workers", "4",
            "--scenario", "churn",
            "--scenario-param", "heterogeneous:period_s=10",
        ])
        assert code == 2
        assert "targets family" in capsys.readouterr().err

    def test_compare_rejects_a_multi_valued_param(self, capsys, monkeypatch):
        """compare runs one scenario; a param grid is a sweep's to run."""
        from repro.experiments.sweeps import SweepCell

        monkeypatch.setattr(
            SweepCell, "execute", lambda self: pytest.fail("a cell ran")
        )
        code = main([
            "compare", "--algorithms", "adpsgd", "--workers", "4",
            "--scenario", "churn", "--scenario-param", "downtime_s=10,30",
        ])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "single-valued" in line

    def test_sweep_compression_axis_dry_run(self, capsys):
        """The compression axis cross-products per cell like any other
        shared param."""
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0",
            "--workers", "4", "--scenarios", "heterogeneous",
            "--scenario-param", "compression=topk",
            "--scenario-param", "compression_param=0.01,0.1",
            "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out
        assert "compression_param=0.01" in out and "compression_param=0.1" in out

    def test_sweep_grid_dedupes_inert_compression_param(self, capsys):
        """compression_param is inert while compression=none, so the
        cross-product must enumerate each canonical cell exactly once."""
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0",
            "--workers", "4", "--scenarios", "heterogeneous",
            "--scenario-param", "compression=none,topk",
            "--scenario-param", "compression_param=0.01,0.1",
            "--dry-run",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # none collapses its two compression_param spellings; topk keeps
        # both: 1 + 2 = 3 distinct cells.
        assert "3 cell(s)" in out

    def test_sweep_bad_compression_fails_dry_run(self, capsys):
        code = main([
            "sweep", "--algorithms", "adpsgd", "--seeds", "0",
            "--workers", "4", "--scenarios", "heterogeneous",
            "--scenario-param", "compression=gzip", "--dry-run",
        ])
        assert code == 2
        assert "unknown compression op" in capsys.readouterr().err

    def test_compare_with_compression_param(self, capsys):
        code = main([
            "compare", "--algorithms", "adpsgd", "--workers", "4",
            "--samples", "256", "--batch-size", "32", "--sim-time", "5",
            "--scenario", "heterogeneous",
            "--scenario-param", "compression=topk",
            "--scenario-param", "compression_param=0.1",
        ])
        assert code == 0
        assert (
            "heterogeneous-4w[compression=topk,compression_param=0.1]"
            in capsys.readouterr().out
        )

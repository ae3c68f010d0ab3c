"""Experiment harness: scenario builders, the comparison runner, the sweep
engine, and the paper's evaluation (Section V and Appendices F-G) declared
on top of it. ``regenerate("fig5", ...)`` runs any of Figs. 5-19 /
Tables II-VI, or a beyond-paper figure (``"dyn-traces"``, ``"dyn-churn"``,
``"dyn-topology"``, ``"dyn-edges"``, ``"compression"``), at a configurable
scale and returns structured rows (:mod:`repro.experiments.paper`);
``benchmarks/bench_paper.py`` calls it at small scale and asserts the
paper-shaped output. Fig. 3 (analytic) is the one plain function; the
worker-axis scalability cells are ``benchmarks/bench_scalability.py``'s.
"""

from repro.experiments.scenarios import (
    Scenario,
    heterogeneous_scenario,
    homogeneous_scenario,
    multi_cloud_scenario,
    ScenarioFamily,
    ScenarioParam,
    SCENARIO_FAMILIES,
    scenario_names,
    get_scenario_family,
    build_scenario,
    Workload,
    make_workload,
    make_quadratic_workload,
)
from repro.experiments.harness import (
    run_trainer,
    run_comparison,
    time_to_loss_speedups,
)
from repro.experiments.executors import (
    InlineExecutor,
    ProcessExecutor,
    QueueExecutor,
    SweepExecutor,
    WorkQueue,
    make_executor,
    run_queue_worker,
)
from repro.experiments.sweeps import (
    ScenarioSpec,
    WorkloadSpec,
    RunSpec,
    SweepSpec,
    SweepResult,
    ResultCache,
    run_sweep,
    aggregate_sweep,
)
from repro.experiments.reporting import render_table
from repro.experiments.common import ExperimentOutput, Series
from repro.experiments.paper import (
    PAPER_EXPERIMENTS,
    figure3_iteration_time,
    regenerate,
)
from repro.experiments.figures_scaling import (
    run_scalability_cell,
    scalability_scenario,
)

__all__ = [
    "Scenario",
    "heterogeneous_scenario",
    "homogeneous_scenario",
    "multi_cloud_scenario",
    "ScenarioFamily",
    "ScenarioParam",
    "SCENARIO_FAMILIES",
    "scenario_names",
    "get_scenario_family",
    "build_scenario",
    "Workload",
    "make_workload",
    "make_quadratic_workload",
    "run_trainer",
    "run_comparison",
    "time_to_loss_speedups",
    "ScenarioSpec",
    "WorkloadSpec",
    "RunSpec",
    "SweepSpec",
    "SweepResult",
    "ResultCache",
    "run_sweep",
    "aggregate_sweep",
    "SweepExecutor",
    "InlineExecutor",
    "ProcessExecutor",
    "QueueExecutor",
    "WorkQueue",
    "make_executor",
    "run_queue_worker",
    "render_table",
    "ExperimentOutput",
    "Series",
    "PAPER_EXPERIMENTS",
    "regenerate",
    "figure3_iteration_time",
    "run_scalability_cell",
    "scalability_scenario",
]

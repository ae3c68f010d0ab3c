"""The paper's evaluation (Section V, Appendices F-G), and the figures that
test its claim beyond it, as data.

Figs. 5-19 and Tables II-VI are one experiment shape -- the same four to
six algorithms on a cluster x a workload, reduced to an epoch-time split, a
loss curve with a time-to-loss speedup, or an accuracy row. The five
beyond-paper figures (``dyn-traces``, ``dyn-churn``, ``dyn-topology``,
``dyn-edges``, ``compression``) are a second: the gossip algorithms over two
seeds across a scenario grid, reduced to mean +- std per (algorithm,
scenario) with each scenario's winner. Each artefact is a
:class:`PaperExperiment`: ``grids`` declares its labelled
:class:`~repro.experiments.sweeps.SweepSpec` panels in spec types only,
``reduce`` folds the panels' sweeps into rows and series, and
:func:`regenerate` runs every panel through
:func:`~repro.experiments.sweeps.run_sweep` -- so every figure gets the
result cache and every execution backend a sweep has. docs/paper_experiments.md
lists every artefact with the shape its bench entry or smoke test asserts.

Every run seeds its samplers ``[seed, 0, i]`` whatever the algorithm
(common random numbers across a comparison).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import partial

from repro.datasets.partition import (
    PAPER_CLOUD_LOST_LABELS,
    PAPER_MNIST_LOST_LABELS,
    paper_segment_layout,
)
from repro.experiments.common import ExperimentOutput, Series
from repro.experiments.harness import time_to_loss_speedups
from repro.experiments.reporting import format_mean_std
from repro.experiments.sweeps import (
    RunSpec,
    ScenarioSpec,
    SweepResult,
    SweepSpec,
    WorkloadSpec,
    aggregate_sweep,
    run_sweep,
)
from repro.network.cluster import ClusterSpec
from repro.network.costmodel import CommunicationModel, ComputeModel, get_cost_profile
from repro.network.links import ClusterLinks
from repro.simulation.records import TrainingResult

__all__ = [
    "PAPER_EXPERIMENTS",
    "PaperExperiment",
    "figure3_iteration_time",
    "regenerate",
]

# The four approaches of Figs. 5-13 / 16-18 and Tables II-V, in the paper's
# legend order; Section V-G adds the parameter-server baselines, Appendix G
# compares against them alone.
_ALGORITHMS = ("prague", "allreduce", "adpsgd", "netmax")
_PS_ALGORITHMS = ("prague", "allreduce", "adpsgd", "ps-syn", "ps-asyn", "netmax")
_CLOUD_ALGORITHMS = ("ps-syn", "ps-asyn", "adpsgd", "netmax")

# A panel is one grid labelled with what distinguishes it (``{"model":
# "vgg19"}``); once run, its sweep.
Panels = list[tuple[dict, SweepSpec]]
PanelResults = list[tuple[dict, SweepResult]]


@dataclass(frozen=True)
class PaperExperiment:
    """One paper artefact, declared.

    Attributes:
        experiment_id: e.g. ``"fig5"`` or ``"table2"``.
        title: formatted with the scale values.
        notes: the paper shape the artefact should show.
        scale: every settable key with its default.
        grids: ``(seed, **scale)`` -> labelled panels; builds specs, runs
            nothing.
        reduce: ``(panel sweeps, **scale)`` -> the ``headers`` / ``rows``
            (and optionally ``series`` / extra ``notes``) of the output.
        requires: algorithms every panel must include (a speedup reference,
            a scalability baseline).
    """

    experiment_id: str
    title: str
    notes: str
    scale: Mapping[str, object]
    grids: Callable[..., Panels]
    reduce: Callable[..., dict]
    requires: tuple[str, ...] = ()


def regenerate(
    experiment_id: str,
    *,
    seed: int = 0,
    parallel: int = 0,
    cache_dir: str | None = None,
    **scale,
) -> ExperimentOutput:
    """Regenerate one paper artefact at the given scale.

    ``scale`` overrides the experiment's declared defaults (a key it does
    not declare is a ``TypeError``); ``parallel`` and ``cache_dir`` are
    :func:`~repro.experiments.sweeps.run_sweep`'s. Everything that can be
    wrong with the request -- an unbuildable spec, a missing required
    algorithm, an unknown ``experiment_id`` -- raises ``ValueError``
    before any cell runs.
    """
    if experiment_id not in PAPER_EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; valid: "
            f"{sorted(PAPER_EXPERIMENTS)}"
        )
    experiment = PAPER_EXPERIMENTS[experiment_id]
    unknown = sorted(set(scale) - set(experiment.scale))
    if unknown:
        raise TypeError(
            f"{experiment_id} got unexpected scale key(s) {unknown}; "
            f"accepted: {sorted(experiment.scale)}"
        )
    scale = {**experiment.scale, **scale}
    panels = experiment.grids(seed, **scale)
    for _, spec in panels:
        missing = set(experiment.requires) - set(spec.algorithms)
        if missing:
            raise ValueError(
                f"{experiment_id} measures every algorithm against "
                f"{sorted(missing)}; include it in `algorithms` "
                f"(got {spec.algorithms})"
            )
    sweeps = [
        (label, run_sweep(spec, parallel=parallel, cache_dir=cache_dir))
        for label, spec in panels
    ]
    reduced = experiment.reduce(sweeps, **scale)
    notes = experiment.notes + reduced.pop("notes", "")
    return ExperimentOutput(
        experiment_id, experiment.title.format(**scale), notes=notes, **reduced
    )


# -- spec helpers --------------------------------------------------------------
# A recipe is a workload with the learning-rate schedule the paper trains it
# under. The Section V-A cluster is the ``heterogeneous`` (rotating slowed
# link) or ``homogeneous`` (10 Gbps throughout) scenario family.


def _cifar10(model: str, num_samples: int) -> tuple[WorkloadSpec, tuple]:
    """The cluster experiments: CIFAR10, uniform shards, batch 128, lr 0.1
    decayed on plateau."""
    workload = WorkloadSpec(model, "cifar10", batch_size=128, num_samples=num_samples)
    return workload, ("plateau", 0.1)


def _segments(
    model: str, dataset: str, num_workers: int, num_samples: int | None
) -> tuple[WorkloadSpec, tuple]:
    """Section V-F: non-uniform segments, batch 64 x a worker's segments,
    lr 0.1 decayed at epoch 40."""
    workload = WorkloadSpec(
        model, dataset, batch_size=64, num_samples=num_samples,
        partition="segments",
        segments_per_worker=paper_segment_layout(num_workers),
    )
    return workload, ("step", 0.1, 40.0)


def _label_drops(
    model: str, lost_labels: tuple[tuple[int, ...], ...], num_samples: int | None
) -> tuple[WorkloadSpec, tuple]:
    """Table IV / Appendix G: non-IID MNIST, each worker missing labels,
    batch 32, constant lr 0.01."""
    workload = WorkloadSpec(
        model, "mnist", batch_size=32, num_samples=num_samples,
        partition="drop-labels", lost_labels=lost_labels,
    )
    return workload, ("constant", 0.01)


def _panel(
    seed, algorithms, scenario, recipe, max_sim_time, *,
    evaluations=25, max_epochs=None, trainer_kwargs=(),
) -> SweepSpec:
    """One single-seed grid, evaluated ``evaluations`` times over the run
    (at least 5 s apart)."""
    workload, lr = recipe
    run = RunSpec(
        max_sim_time, eval_interval_s=max(5.0, max_sim_time / evaluations),
        max_epochs=max_epochs, lr=lr,
    )
    return SweepSpec(
        tuple(algorithms), (seed,), (scenario,), workload, run, trainer_kwargs
    )


# -- grids ---------------------------------------------------------------------


def _cifar10_grids(
    seed, *, network, models, worker_counts, num_samples, max_sim_time,
    algorithms=_ALGORITHMS, **run,
) -> Panels:
    """One panel per (model, worker count) on the Section V-A cluster."""
    return [
        ({"model": model, "workers": workers}, _panel(
            seed, algorithms, ScenarioSpec(network, workers),
            _cifar10(model, num_samples), max_sim_time, **run,
        ))
        for model in models
        for workers in worker_counts
    ]


# Fig. 7's four NetMax variants: serial/parallel x uniform/adaptive.
_ABLATION_SETTINGS = {
    "serial+uniform": (("overlap", False), ("adaptive", False)),
    "parallel+uniform": (("overlap", True), ("adaptive", False)),
    "serial+adaptive": (("overlap", False), ("adaptive", True)),
    "parallel+adaptive": (("overlap", True), ("adaptive", True)),
}


def _ablation_grids(seed, *, models, num_workers, num_samples, max_sim_time) -> Panels:
    """One single-cell panel per (model, NetMax variant)."""
    return [
        ({"model": model, "setting": setting}, _panel(
            seed, ("netmax",), ScenarioSpec("heterogeneous", num_workers),
            _cifar10(model, num_samples), max_sim_time,
            trainer_kwargs=(("netmax", kwargs),),
        ))
        for model in models
        for setting, kwargs in _ABLATION_SETTINGS.items()
    ]


def _noniid_grids(
    seed, *, model, dataset, algorithms, num_workers, num_samples,
    max_sim_time, **run,
) -> Panels:
    """The single panel of one non-uniformly partitioned dataset: MNIST by
    the Table IV label drops, the others in Section V-F segments."""
    recipe = (
        _label_drops(model, PAPER_MNIST_LOST_LABELS[:num_workers], num_samples)
        if dataset == "mnist"
        else _segments(model, dataset, num_workers, num_samples)
    )
    return [({"dataset": dataset, "model": model}, _panel(
        seed, algorithms, ScenarioSpec("heterogeneous", num_workers), recipe,
        max_sim_time, **run,
    ))]


def _table5_grids(seed, *, datasets, num_workers, **scale) -> Panels:
    """One panel per dataset; the paper's ImageNet row has 16 workers."""
    return [
        panel
        for dataset, model in datasets
        for panel in _noniid_grids(
            seed, model=model, dataset=dataset, algorithms=_ALGORITHMS,
            num_workers=16 if dataset == "imagenet" else num_workers,
            evaluations=20, **scale,
        )
    ]


def _multicloud_grids(seed, *, models, num_samples, max_sim_time) -> Panels:
    """One panel per model across the six Appendix G regions."""
    regions = ScenarioSpec("multi-cloud", len(PAPER_CLOUD_LOST_LABELS))
    return [
        ({"model": model}, _panel(
            seed, _CLOUD_ALGORITHMS, regions,
            _label_drops(model, PAPER_CLOUD_LOST_LABELS, num_samples),
            max_sim_time,
        ))
        for model in models
    ]


def _dynamics_grids(
    seed, *, algorithms, scenarios, max_sim_time, num_samples
) -> Panels:
    """The single two-seed panel of a beyond-paper figure: ``scenarios``
    maps the horizon to its ``(family, params)`` grid on 8 workers."""
    return [({}, SweepSpec(
        algorithms, (seed, seed + 1),
        tuple(
            ScenarioSpec(kind, 8, tuple(params.items()))
            for kind, params in scenarios(max_sim_time)
        ),
        WorkloadSpec(num_samples=num_samples), RunSpec(max_sim_time),
    ))]


def _rotating(horizon, **params) -> tuple[str, dict]:
    """The Section V-A cluster with its slow-link rotation scaled into the
    horizon: at the paper's 300 s period a short run would never see one."""
    return "heterogeneous", {"period_s": horizon / 4.0, **params}


# -- reducers ------------------------------------------------------------------


def _by_algorithm(panels: PanelResults) -> list[tuple[dict, dict[str, TrainingResult]]]:
    """Each panel's results keyed by algorithm (one seed per panel)."""
    return [
        (label, {o.cell.algorithm: o.result for o in sweep.outcomes})
        for label, sweep in panels
    ]


# Output column -> the number it reports for one run.
_METRICS: dict[str, Callable[[TrainingResult], float]] = {
    "computation_s": lambda r: r.costs.summary()["computation_cost"],
    "communication_s": lambda r: r.costs.summary()["communication_cost"],
    "epoch_s": lambda r: r.costs.summary()["epoch_time"],
    "epoch_time_s": lambda r: r.costs.summary()["epoch_time"],
    "final_loss": lambda r: r.history.final_loss(),
    "epochs_done": lambda r: r.history.as_arrays()["epoch"][-1],
    "test_accuracy": lambda r: r.history.final_accuracy(),
    "final_accuracy": lambda r: r.history.final_accuracy(),
    "accuracy": lambda r: r.history.best_accuracy(),
}


def _rows(panels: PanelResults, *, headers, series=(), speedup_vs=None, **scale) -> dict:
    """One row per (panel, algorithm), a value per header: a panel-label
    key, ``algorithm``, ``speedup_vs_<speedup_vs>`` (time to the common
    loss) or a ``_METRICS`` column. ``series`` lists the curves to keep per
    run as ``(label format, x column, y column)`` of the history arrays."""
    rows, curves = [], []
    for label, results in _by_algorithm(panels):
        if speedup_vs:
            speedups = time_to_loss_speedups(results, reference=speedup_vs)
        for name, result in results.items():
            known = {**label, "algorithm": name}
            if speedup_vs:
                known[f"speedup_vs_{speedup_vs}"] = speedups[name]
            rows.append([
                known[h] if h in known else _METRICS[h](result) for h in headers
            ])
            arrays = result.history.as_arrays()
            curves.extend(
                Series(fmt.format(**known), arrays[x], arrays[y])
                for fmt, x, y in series
            )
    return {"headers": list(headers), "rows": rows, "series": curves}


def _scalability_rows(
    panels: PanelResults, *, worker_counts, target_epochs, max_sim_time, **scale
) -> dict:
    """Speedup = baseline time / own time to finish ``target_epochs``, the
    baseline being Allreduce-SGD at the smallest worker count (Section V-E).

    A run stops at ``max_sim_time`` whether or not it got there, so its
    ``sim_time`` is a time-to-target only if its history reached the target.
    """
    times = {
        (name, label["workers"]): (
            result.sim_time
            if result.history.as_arrays()["epoch"][-1] >= target_epochs
            else math.nan
        )
        for label, results in _by_algorithm(panels)
        for name, result in results.items()
    }
    baseline = times["allreduce", worker_counts[0]]
    unfinished = (
        f" The allreduce baseline's {max_sim_time:g} s budget ended before "
        f"epoch {target_epochs:g}, so no speedup is defined."
    )
    return {
        "headers": ["algorithm", "workers", "time_to_target_s", "speedup"],
        "rows": [[*key, own, baseline / own] for key, own in times.items()],
        "notes": unfinished if math.isnan(baseline) else "",
    }


def _accuracy_rows(panels: PanelResults, **scale) -> dict:
    """One row per panel: its label, then each algorithm's best accuracy."""
    panels = _by_algorithm(panels)
    return {
        "headers": [*panels[0][0], *panels[0][1]],
        "rows": [
            [*label.values(), *map(_METRICS["accuracy"], results.values())]
            for label, results in panels
        ],
    }


def _winners(panels: PanelResults, **scale) -> dict:
    """The sweep's mean +- std table per (algorithm, scenario), and each
    scenario's lowest mean final loss quoted with its std band -- so a gap
    the size of the seed spread reads as one, not as a decisive ranking."""
    ((_, sweep),) = panels
    table = aggregate_sweep(sweep)
    best: dict[str, tuple] = {}
    for row in table.rows:
        algorithm, scenario, loss, std = row[0], row[1], row[3], row[4]
        if math.isfinite(loss) and (scenario not in best or loss < best[scenario][1]):
            best[scenario] = (algorithm, loss, std)
    notes = " " + table.notes
    if best:
        notes += " Lowest mean final loss per scenario -- " + "; ".join(
            f"{scenario}: {algorithm} ({format_mean_std(loss, std)})"
            for scenario, (algorithm, loss, std) in sorted(best.items())
        ) + "."
    return {"headers": table.headers, "rows": table.rows, "notes": notes}


_LOSS_PER_EPOCH_AND_SECOND = (
    ("{algorithm}:epoch", "epoch", "train_loss"),
    ("{algorithm}:time", "time", "train_loss"),
)


# -- Fig. 3 (analytic: trains nothing) -----------------------------------------


def figure3_iteration_time(
    models: tuple[str, ...] = ("resnet18", "vgg19"),
    batch_size: int = 128,
) -> ExperimentOutput:
    """Fig. 3: intra- vs inter-machine iteration time per model.

    Two workers on the same server vs. on different 1 Gbps-connected
    servers; iteration time is ``max(C, N)`` as in Section II-B.
    """
    rows = []
    for model in models:
        profile = get_cost_profile(model)
        compute = ComputeModel(profile, 2)
        intra = CommunicationModel(ClusterLinks(ClusterSpec((2,))))
        inter = CommunicationModel(ClusterLinks(ClusterSpec((1, 1))))
        c = compute.compute_time(0, batch_size)
        t_intra = max(c, intra.comm_time(0, 1, profile.message_bytes, 0.0))
        t_inter = max(c, inter.comm_time(0, 1, profile.message_bytes, 0.0))
        rows.append([model, t_intra, t_inter, t_inter / t_intra])
    return ExperimentOutput(
        experiment_id="fig3",
        title="Average iteration time: intra- vs inter-machine communication",
        headers=["model", "intra_s", "inter_s", "ratio"],
        rows=rows,
        notes="Paper shape: inter-machine iteration time up to ~4x intra-machine.",
    )


# -- the declarations ----------------------------------------------------------
# Artefacts that differ only in the network (or the dataset) share a
# constructor; each adapts its own scale keys to its grid builder's.

_CLUSTER_SCALE = dict(num_workers=8, num_samples=4096, max_sim_time=300.0)
_CIFAR100_SCALE = dict(num_workers=8, num_samples=8192, max_sim_time=300.0)


def _epoch_time(experiment_id, network, notes) -> PaperExperiment:
    """Figs. 5-6: epoch-time decomposition per model."""
    return PaperExperiment(
        experiment_id,
        f"Average epoch time (computation vs communication), {network}",
        notes,
        scale=dict(_CLUSTER_SCALE, models=("resnet18", "vgg19"), algorithms=_ALGORITHMS),
        grids=lambda seed, *, num_workers, **scale: _cifar10_grids(
            seed, network=network, worker_counts=(num_workers,), **scale
        ),
        reduce=partial(_rows, headers=(
            "model", "algorithm", "computation_s", "communication_s", "epoch_s",
        )),
    )


def _loss_vs_time(experiment_id, network) -> PaperExperiment:
    """Figs. 8-9: training loss against virtual time."""
    return PaperExperiment(
        experiment_id,
        f"Training loss vs time ({{model}}, {network}, {{num_workers}} workers)",
        "Paper shape: NetMax converges fastest in wall-clock time.",
        scale=dict(_CLUSTER_SCALE, model="resnet18", algorithms=_ALGORITHMS),
        grids=lambda seed, *, model, num_workers, **scale: _cifar10_grids(
            seed, network=network, models=(model,),
            worker_counts=(num_workers,), **scale,
        ),
        reduce=partial(
            _rows, headers=("algorithm", "final_loss", "speedup_vs_adpsgd"),
            series=(("{algorithm}", "time", "train_loss"),), speedup_vs="adpsgd",
        ),
        requires=("adpsgd",),
    )


def _scalability(experiment_id, network, worker_counts) -> PaperExperiment:
    """Figs. 10-11: speedup against the number of workers."""
    return PaperExperiment(
        experiment_id,
        f"Scalability: speedup vs workers ({{model}}, {network}); "
        "baseline = allreduce @ {worker_counts[0]} workers",
        "Paper shape: NetMax scales best; the gap widens with more workers.",
        scale=dict(
            worker_counts=worker_counts, model="resnet18", target_epochs=10.0,
            num_samples=4096, algorithms=_ALGORITHMS, max_sim_time=1200.0,
        ),
        grids=lambda seed, *, model, target_epochs, **scale: _cifar10_grids(
            seed, network=network, models=(model,),
            max_epochs=target_epochs, **scale,
        ),
        reduce=_scalability_rows,
        requires=("allreduce",),
    )


def _nonuniform(experiment_id, model, dataset, num_workers, num_samples) -> PaperExperiment:
    """Figs. 12/13/16/17: loss per epoch and per second under Section V-F."""
    return PaperExperiment(
        experiment_id,
        f"Non-uniform training: {model} on {dataset} ({{num_workers}} workers)",
        "Paper shape: similar convergence per epoch across algorithms; "
        "NetMax much faster against wall-clock time.",
        scale=dict(
            num_workers=num_workers, num_samples=num_samples,
            max_sim_time=300.0, algorithms=_ALGORITHMS,
        ),
        grids=partial(_noniid_grids, model=model, dataset=dataset),
        reduce=partial(
            _rows, series=_LOSS_PER_EPOCH_AND_SECOND, speedup_vs="adpsgd",
            headers=("algorithm", "final_loss", "epochs_done", "speedup_vs_adpsgd"),
        ),
        requires=("adpsgd",),
    )


def _accuracy_table(experiment_id, network, worker_counts) -> PaperExperiment:
    """Tables II-III: best test accuracy per (model, worker count)."""
    return PaperExperiment(
        experiment_id,
        f"Accuracy of models trained over a {network} network",
        "Paper shape: all approaches within ~1% of each other (around "
        "90% on CIFAR10-class tasks), NetMax on par or slightly ahead.",
        scale=dict(
            worker_counts=worker_counts, models=("resnet18", "vgg19"),
            num_samples=4096, max_sim_time=300.0,
        ),
        grids=partial(_cifar10_grids, network=network, evaluations=20),
        reduce=_accuracy_rows,
    )


_GOSSIP = ("netmax", "adpsgd", "saps")


def _beyond(experiment_id, title, notes, algorithms, scenarios) -> PaperExperiment:
    """A beyond-paper figure: the paper's one dynamic pattern is the
    rotating slowed link; these sweep ``algorithms`` across richer dynamics,
    every horizon-bound parameter scaled into ``max_sim_time``."""
    return PaperExperiment(
        experiment_id, title, notes,
        scale=dict(max_sim_time=60.0, num_samples=512),
        grids=partial(_dynamics_grids, algorithms=algorithms, scenarios=scenarios),
        reduce=_winners,
    )


PAPER_EXPERIMENTS: dict[str, PaperExperiment] = {
    experiment.experiment_id: experiment
    for experiment in (
        _epoch_time(
            "fig5", "heterogeneous",
            "Paper shape: computation ~equal everywhere; NetMax lowest "
            "communication cost, Prague highest.",
        ),
        _epoch_time(
            "fig6", "homogeneous",
            "Paper shape: communication costs much lower than Fig. 5; "
            "NetMax ~ AD-PSGD < Allreduce ~ Prague.",
        ),
        PaperExperiment(
            "fig7",
            "NetMax source-of-improvement ablation (average epoch time)",
            "Paper shape: adaptive probabilities deliver most of the gain; "
            "parallel overlap is marginal because compute << communication.",
            scale=dict(_CLUSTER_SCALE, models=("resnet18", "vgg19")),
            grids=_ablation_grids,
            reduce=partial(_rows, headers=("model", "setting", "epoch_s")),
        ),
        _loss_vs_time("fig8", "heterogeneous"),
        _loss_vs_time("fig9", "homogeneous"),
        _scalability("fig10", "heterogeneous", (4, 8, 16)),
        _scalability("fig11", "homogeneous", (4, 6, 8)),
        _nonuniform("fig12", "resnet18", "cifar100", 8, 8192),
        _nonuniform("fig13", "resnet50", "imagenet", 16, 16384),
        PaperExperiment(
            "fig14",
            "MobileNet on CIFAR100 with parameter-server baselines",
            "Paper shape: PS-asyn converges worst per epoch (fast co-located "
            "workers dominate the PS model); PS-syn slowest in time; NetMax "
            "fastest in time.",
            scale=_CIFAR100_SCALE,
            grids=partial(
                _noniid_grids, model="mobilenet", dataset="cifar100",
                algorithms=_PS_ALGORITHMS,
            ),
            reduce=partial(
                _rows, series=_LOSS_PER_EPOCH_AND_SECOND,
                headers=("algorithm", "final_loss", "test_accuracy"),
            ),
        ),
        PaperExperiment(
            "fig15",
            "AD-PSGD extended with the Network Monitor",
            "Paper shape: monitor cuts AD-PSGD's epoch time; NetMax still "
            "converges slightly faster per epoch thanks to 1/p_im weighting.",
            scale=_CIFAR100_SCALE,
            grids=partial(
                _noniid_grids, model="resnet18", dataset="cifar100",
                algorithms=("adpsgd", "adpsgd-monitor", "netmax"),
            ),
            reduce=partial(
                _rows, series=_LOSS_PER_EPOCH_AND_SECOND,
                headers=("algorithm", "final_loss", "epoch_time_s"),
            ),
        ),
        _nonuniform("fig16", "resnet18", "cifar10", 8, 4096),
        _nonuniform("fig17", "resnet18", "tiny-imagenet", 8, 8192),
        PaperExperiment(
            "fig18",
            "MobileNet on non-IID MNIST (batch 32, lr 0.01)",
            "Paper shape: NetMax slightly slower per iteration count but "
            "clearly faster in time (2.45x/2.35x/1.39x over Prague/"
            "Allreduce/AD-PSGD).",
            scale=dict(_CLUSTER_SCALE, max_sim_time=200.0, algorithms=_ALGORITHMS),
            grids=partial(_noniid_grids, model="mobilenet", dataset="mnist"),
            reduce=partial(
                _rows, speedup_vs="adpsgd",
                headers=("algorithm", "final_loss", "test_accuracy", "speedup_vs_adpsgd"),
                series=(
                    ("{algorithm}:step", "global_step", "train_loss"),
                    ("{algorithm}:time", "time", "train_loss"),
                ),
            ),
            requires=("adpsgd",),
        ),
        PaperExperiment(
            "fig19",
            "Multi-cloud training (6 regions): test accuracy vs time",
            "Paper shape: NetMax converges ~1.9-2.1x faster than AD-PSGD/"
            "PS-asyn/PS-syn; PS-syn is the slowest.",
            scale=dict(
                models=("mobilenet", "googlenet"), num_samples=4096,
                max_sim_time=600.0,
            ),
            grids=_multicloud_grids,
            reduce=partial(
                _rows, headers=("model", "algorithm", "final_accuracy"),
                series=(("{model}/{algorithm}", "time", "test_accuracy"),),
            ),
        ),
        _accuracy_table("table2", "heterogeneous", (4, 8, 16)),
        _accuracy_table("table3", "homogeneous", (4, 6, 8)),
        PaperExperiment(
            "table5",
            "Accuracy with non-uniform data partitioning (heterogeneous net)",
            "Paper shape: NetMax comparable or slightly ahead everywhere; "
            "MNIST accuracy depressed by the non-IID split.",
            scale=dict(
                datasets=(
                    ("cifar10", "resnet18"),
                    ("cifar100", "resnet18"),
                    ("mnist", "mobilenet"),
                    ("tiny-imagenet", "resnet18"),
                    ("imagenet", "resnet50"),
                ),
                num_workers=8, num_samples=None, max_sim_time=300.0,
            ),
            grids=_table5_grids,
            reduce=_accuracy_rows,
        ),
        PaperExperiment(
            "table6",
            "MobileNet on CIFAR100: test accuracy (non-uniform partitioning)",
            "Paper shape: ~63-64% for everyone (MobileNet capacity-bound on "
            "CIFAR100), NetMax marginally best.",
            scale=_CIFAR100_SCALE,
            grids=partial(
                _noniid_grids, model="mobilenet", dataset="cifar100",
                algorithms=_PS_ALGORITHMS, evaluations=20,
            ),
            reduce=partial(_rows, headers=("algorithm", "accuracy")),
        ),
        _beyond(
            "dyn-traces",
            "Algorithm comparison across trace-driven link dynamics",
            "Beyond the paper: SAPS's one-shot link measurement goes stale "
            "under every trace family (20 segments per horizon), while NetMax "
            "re-plans each monitor period.",
            _GOSSIP,
            lambda horizon: [_rotating(horizon)] + [
                (family, {"duration_s": horizon, "step_s": horizon / 20.0})
                for family in ("trace-diurnal", "trace-random-walk", "trace-burst")
            ],
        ),
        _beyond(
            "dyn-churn",
            "Algorithm comparison under worker churn (downtime x departures)",
            "Beyond the paper: how much each algorithm's consensus suffers "
            "while the active set shrinks; rejoining workers resume from "
            "their frozen replicas.",
            _GOSSIP,
            lambda horizon: [
                ("churn", {
                    "horizon_s": horizon, "downtime_s": share * horizon,
                    "num_departures": count,
                })
                for share in (0.1, 0.25)
                for count in (1, 3)
            ],
        ),
        _beyond(
            "dyn-topology",
            "Algorithm comparison across communication-graph families",
            "Beyond the paper: sparse graphs leave fewer routes around the "
            "slowed link (a star none at all), which is where adaptive peer "
            "selection should matter most.",
            (*_GOSSIP, "allreduce"),
            lambda horizon: [
                _rotating(horizon, topology=kind, edge_probability=0.35)
                for kind in ("full", "ring", "star", "random")
            ],
        ),
        _beyond(
            "dyn-edges",
            "Algorithm comparison under time-varying edge failures",
            "Beyond the paper: on a ring every failed edge removes a route. "
            "SAPS's one-shot subgraph cannot route around an edge that later "
            "fails; NetMax re-solves its policy on every edge-set change.",
            _GOSSIP,
            lambda horizon: [
                _rotating(
                    horizon, topology="ring", edge_failures=count,
                    edge_horizon_s=horizon,
                    edge_downtime_s=0.5 * horizon / max(count, 1),
                )
                for count in (0, 2, 5)
            ],
        ),
        _beyond(
            "compression",
            "Compress vs. route vs. both across bandwidth regimes",
            "Beyond the paper: the compress/route square -- AD-PSGD plain "
            "(neither) or + top-k (compress), NetMax plain (route) or + top-k "
            "(both) -- under a mild and the paper's 100x slowed link.",
            ("adpsgd", "netmax"),
            lambda horizon: [
                _rotating(
                    horizon, slowdown_high=slowdown, compression=op,
                    compression_param=0.05,
                )
                for slowdown in (4.0, 100.0)
                for op in ("none", "topk")
            ],
        ),
    )
}

"""The paper's figures and tables at bench scale, each with the shape the
paper reports asserted on its output.

One entry per artefact: the reduced scale it regenerates at and a check of
the paper shape, as far as that scale can show it. Figs. 5-19 and
Tables II-VI are declarations run by ``regenerate``; Fig. 3 is analytic.
docs/paper_experiments.md lists the shapes side by side.

Run all (~5 min):  pytest benchmarks/bench_paper.py --benchmark-only -q
Run some:          ... -k "fig05 or table2"
"""

import numpy as np
import pytest
from conftest import run_once

from repro.experiments import figure3_iteration_time, regenerate

FOUR = ("netmax", "adpsgd", "allreduce", "prague")
SIX = {"prague", "allreduce", "adpsgd", "ps-syn", "ps-asyn", "netmax"}


def check_fig03(out):
    """Inter-machine iteration time up to ~4x intra-machine; the gap grows
    with model size (VGG19 > ResNet18)."""
    rows = out.row_dict()
    assert rows["resnet18"][2] > rows["resnet18"][1]  # inter > intra
    assert rows["vgg19"][3] > rows["resnet18"][3]  # bigger model, bigger gap


def check_fig05(out):
    """Computation cost ~equal for all approaches; NetMax has the lowest
    communication cost; Prague the highest (group partial-allreduce
    contention + link-speed-agnostic grouping)."""
    for model in ("resnet18", "vgg19"):
        rows = {row[1]: row for row in out.rows if row[0] == model}
        comps = [row[2] for row in rows.values()]
        assert max(comps) / min(comps) < 1.5  # computation ~equal
        assert rows["netmax"][3] <= rows["adpsgd"][3] * 1.25  # netmax comm lowest-ish


def check_fig06(out):
    """Communication costs far below Fig. 5; NetMax ~ AD-PSGD (both pull
    from one neighbor) < Allreduce ~ Prague (extra collective rounds)."""
    for model in ("resnet18", "vgg19"):
        rows = {row[1]: row for row in out.rows if row[0] == model}
        # Async pull methods beat the collectives on communication.
        async_worst = max(rows["netmax"][3], rows["adpsgd"][3])
        sync_best = min(rows["allreduce"][3], rows["prague"][3])
        assert async_worst < sync_best


def check_fig07(out):
    """Adaptive neighbor probabilities deliver the bulk of the gain;
    compute/communication overlap is marginal (GPU compute << network)."""
    for model in ("resnet18", "vgg19"):
        rows = {row[1]: row[2] for row in out.rows if row[0] == model}
        # Full NetMax at least matches the serial+uniform baseline.
        assert rows["parallel+adaptive"] <= rows["serial+uniform"] * 1.05


def check_fig08(out):
    """NetMax converges fastest (reported 1.9x over AD-PSGD, 3.4x over
    Allreduce, 3.7x over Prague for ResNet18); the async pull methods
    dominate the collectives."""
    rows = out.row_dict()
    # Every algorithm makes progress; loss series are monotone-ish down.
    for series in out.series:
        assert series.y[-1] < series.y[0]
    # Collectives should not beat the async methods to the common target.
    speedups = {name: rows[name][2] for name in rows}
    assert not np.isnan(speedups["netmax"])
    for sync_name in ("allreduce", "prague"):
        if not np.isnan(speedups[sync_name]):
            assert speedups["netmax"] >= speedups[sync_name] * 0.9


def check_fig09(out):
    """NetMax and AD-PSGD nearly coincide (uniform is optimal on a
    homogeneous net, and NetMax detects that); Allreduce/Prague trail."""
    rows = out.row_dict()
    assert abs(rows["netmax"][2] - rows["adpsgd"][2]) < 0.5


def check_fig10(out):
    """All methods scale, NetMax best, with the gap widening as workers
    (and therefore slow-link exposure) increase."""
    speedup = {(row[0], row[1]): row[3] for row in out.rows}
    # The baseline cell is exactly 1.0 by construction.
    assert speedup[("allreduce", 4)] == 1.0
    # NetMax at 8 workers beats NetMax at 4 (it scales).
    assert speedup[("netmax", 8)] > speedup[("netmax", 4)] * 0.9
    # NetMax at 8 at least matches AD-PSGD at 8.
    assert speedup[("netmax", 8)] >= speedup[("adpsgd", 8)] * 0.85


def check_fig11(out):
    """Same story as Fig. 10 with smaller gaps; NetMax ~ AD-PSGD lead,
    Allreduce/Prague trail."""
    speedup = {(row[0], row[1]): row[3] for row in out.rows}
    assert speedup[("allreduce", 4)] == 1.0
    # Async methods lead the collectives at 8 workers.
    assert speedup[("netmax", 8)] >= speedup[("allreduce", 8)]
    assert speedup[("adpsgd", 8)] >= speedup[("prague", 8)]


def check_fig12(out):
    """Per-epoch convergence similar across algorithms; per wall-clock
    time NetMax clearly fastest."""
    # Both panels (epoch + time series) exist for each algorithm.
    labels = {series.label for series in out.series}
    for name in FOUR:
        assert f"{name}:epoch" in labels
        assert f"{name}:time" in labels
    for row in out.rows:
        assert row[2] > 0  # made epoch progress


def check_fig13(out):
    """As Fig. 12 at larger scale, with the 16-worker / 20-segment layout
    of Section V-F."""
    assert len(out.rows) == 4
    for series in out.series:
        if series.label.endswith(":time"):
            assert series.y[-1] <= series.y[0]  # loss not increasing


def check_fig14(out):
    """PS-asyn has the worst per-epoch convergence (co-located workers
    dominate the PS model); PS-syn the slowest wall-clock; NetMax fastest
    in time with comparable accuracy."""
    rows = out.row_dict()
    assert set(rows) == SIX
    # Accuracies clustered (paper: all ~63-64%).
    accuracies = [row[2] for row in rows.values()]
    assert max(accuracies) - min(accuracies) < 0.35


def check_fig15(out):
    """AD-PSGD+Monitor trains faster per wall-clock than plain AD-PSGD (it
    avoids slow links) but converges slightly slower per epoch than NetMax
    (equal-weight averaging under-represents rarely-selected neighbors)."""
    rows = out.row_dict()
    assert set(rows) == {"adpsgd", "adpsgd-monitor", "netmax"}
    # Monitor-driven variants shouldn't be slower per epoch-time than plain
    # AD-PSGD by more than noise.
    assert rows["adpsgd-monitor"][2] <= rows["adpsgd"][2] * 1.25


def check_fig16(out):
    """Near-identical per-epoch convergence across algorithms (10 classes
    are easy); NetMax fastest in time."""
    assert len(out.rows) == 4
    for series in out.series:
        assert len(series.x) > 2


def check_fig17(out):
    """NetMax slightly slower per epoch but much faster in time; final
    accuracy ~57% for everyone (Tiny-ImageNet is data-starved)."""
    assert len(out.rows) == 4
    for row in out.rows:
        assert row[1] > 0  # cross-entropy positive


def check_fig18(out):
    """NetMax converges slightly slower per iteration (extra randomness)
    but 1.4-2.5x faster in time; accuracy ~93%, depressed from ~99% by the
    non-IID split."""
    # Every algorithm learns all 10 classes despite each worker missing 3.
    for name, row in out.row_dict().items():
        assert row[2] > 0.5, f"{name} failed to learn under non-IID split"


def check_fig19(out):
    """NetMax reaches a given test accuracy ~1.9-2.1x faster than AD-PSGD /
    PS-asyn / PS-syn; PS-syn is slowest (bounded by the slowest WAN link to
    the parameter server)."""
    rows = {(row[0], row[1]): row[2] for row in out.rows}
    # All approaches learn; NetMax competitive with the best.
    assert rows[("mobilenet", "netmax")] >= max(rows.values()) - 0.15
    for series in out.series:
        assert series.y[-1] >= series.y[0] - 0.05  # accuracy trends up


def check_accuracy_table(out):
    """All four approaches land within ~1 point of each other (~90% on
    CIFAR10), NetMax on par or slightly ahead. At bench scale: the tight
    clustering, not the absolute level."""
    for row in out.rows:
        accuracies = row[2:]
        assert all(0.3 < acc <= 1.0 for acc in accuracies)
        assert max(accuracies) - min(accuracies) < 0.2


def check_table5(out):
    """CIFAR10 ~89%, CIFAR100 ~72%, MNIST ~93% (non-IID depressed from
    ~99%), Tiny-ImageNet ~57%, ImageNet ~73%. At bench scale the levels are
    lower but the dataset difficulty ordering must hold."""
    rows = out.row_dict()
    # MNIST (easy) beats CIFAR100 (hard) for every algorithm.
    assert np.mean(rows["mnist"][2:]) > np.mean(rows["cifar100"][2:])


def check_table6(out):
    """Everyone lands at ~63-64% (MobileNet is capacity-bound on CIFAR100,
    notably below ResNet18's ~72% of Table V), NetMax marginally best."""
    assert len(out.rows) == 6
    accuracies = {row[0]: row[1] for row in out.rows}
    assert all(0.0 <= acc <= 1.0 for acc in accuracies.values())
    # NetMax within the pack (paper: slightly ahead).
    assert accuracies["netmax"] >= max(accuracies.values()) - 0.15


BOTH_MODELS = dict(models=("resnet18", "vgg19"), num_samples=2048, max_sim_time=240.0)
TWO_COUNTS = dict(worker_counts=(4, 8), target_epochs=6.0, num_samples=2048,
                  max_sim_time=900.0)
SMALL_TABLE = dict(worker_counts=(4, 8), models=("resnet18",), num_samples=3072,
                   max_sim_time=240.0)

# bench id -> (experiment id, bench scale, paper-shape check)
ENTRIES = {
    "fig03": ("fig3", {}, check_fig03),
    "fig05": ("fig5", BOTH_MODELS, check_fig05),
    "fig06": ("fig6", BOTH_MODELS, check_fig06),
    "fig07": ("fig7", BOTH_MODELS, check_fig07),
    "fig08": ("fig8", dict(model="resnet18", num_samples=2048, max_sim_time=240.0),
              check_fig08),
    "fig09": ("fig9", dict(model="resnet18", num_samples=2048, max_sim_time=180.0),
              check_fig09),
    "fig10": ("fig10", TWO_COUNTS, check_fig10),
    "fig11": ("fig11", TWO_COUNTS, check_fig11),
    "fig12": ("fig12", dict(num_samples=4096, max_sim_time=240.0), check_fig12),
    "fig13": ("fig13", dict(num_samples=8192, max_sim_time=180.0), check_fig13),
    "fig14": ("fig14", dict(num_samples=4096, max_sim_time=240.0), check_fig14),
    "fig15": ("fig15", dict(num_samples=4096, max_sim_time=240.0), check_fig15),
    "fig16": ("fig16", dict(num_samples=3072, max_sim_time=200.0), check_fig16),
    "fig17": ("fig17", dict(num_samples=4096, max_sim_time=200.0), check_fig17),
    "fig18": ("fig18", dict(num_samples=3072, max_sim_time=150.0), check_fig18),
    "fig19": ("fig19", dict(models=("mobilenet",), num_samples=3072,
                            max_sim_time=400.0), check_fig19),
    "table2": ("table2", SMALL_TABLE, check_accuracy_table),
    "table3": ("table3", SMALL_TABLE, check_accuracy_table),
    "table5": ("table5", dict(
        datasets=(("cifar10", "resnet18"), ("cifar100", "resnet18"),
                  ("mnist", "mobilenet")),
        num_samples=3072, max_sim_time=180.0), check_table5),
    "table6": ("table6", dict(num_samples=4096, max_sim_time=240.0), check_table6),
}


@pytest.mark.parametrize("experiment_id, scale, check", ENTRIES.values(), ids=list(ENTRIES))
def test_paper_shape(benchmark, report, experiment_id, scale, check):
    if experiment_id == "fig3":
        out = run_once(benchmark, figure3_iteration_time)
    else:
        out = run_once(benchmark, regenerate, experiment_id, **scale)
    check(report(out))

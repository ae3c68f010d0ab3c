"""Command-line interface: run comparisons and regenerate paper artifacts.

Examples::

    # Compare algorithms on the paper's heterogeneous cluster
    python -m repro compare --algorithms netmax adpsgd allreduce \
        --model resnet18 --dataset cifar10 --workers 8 --sim-time 300

    # Regenerate one paper artifact at a chosen scale (optionally in
    # parallel across processes)
    python -m repro figure fig3
    python -m repro figure fig8 --sim-time 240 --samples 2048 --parallel 4

    # Run a declarative sweep grid (algorithms x seeds x scenarios) across
    # processes, with on-disk result caching; --dry-run lists the cells
    python -m repro sweep --algorithms netmax adpsgd --seeds 0 1 2 3 \
        --scenarios heterogeneous homogeneous --workers 8 \
        --parallel 4 --cache-dir .sweep-cache
    python -m repro sweep --algorithms netmax adpsgd --seeds 0 1 --dry-run

    # Fan the same grid out through the file-queue broker: any number of
    # worker processes (this machine or others sharing the directory)
    # claim cells via atomic leases; results are bit-identical to the
    # inline run and a restarted sweep executes only missing cells
    python -m repro sweep --algorithms netmax adpsgd --seeds 0 1 2 3 \
        --backend queue --queue-dir /shared/sweep-q --num-queue-workers 4 \
        --json-summary summary.json
    # ... join that queue from another host/terminal:
    python -m repro sweep-worker --queue-dir /shared/sweep-q

    # Sweep scenario families with per-cell parameter grids: unprefixed
    # params apply to every listed family that declares them; a family:
    # prefix pins one family; comma-separated values cross-product
    python -m repro sweep --algorithms netmax adpsgd --seeds 0 1 \
        --scenarios trace-diurnal churn \
        --scenario-param trace-diurnal:amplitude=0.3,0.8 \
        --scenario-param churn:downtime_s=10,30 --dry-run

    # Every family accepts the topology axis (full|ring|star|random|torus|
    # small-world|hypercube|expander); comma-separated values sweep graph
    # families per cell
    python -m repro sweep --algorithms netmax adpsgd allreduce --seeds 0 1 \
        --scenarios heterogeneous --scenario-param topology=full,ring,random

    # ... including a *time-varying* edge set: edge_failures > 0 overlays a
    # seeded fail/repair schedule on the chosen graph (gossip algorithms
    # only; the monitor re-solves its policy on every edge-set change)
    python -m repro sweep --algorithms netmax adpsgd saps --seeds 0 1 \
        --scenarios heterogeneous \
        --scenario-param topology=ring --scenario-param edge_failures=2,5

    # Compare on a named scenario family with parameter overrides
    python -m repro compare --algorithms netmax adpsgd \
        --scenario trace-burst --scenario-param burst_probability=0.2

    # Solve a communication policy for a measured time matrix (CSV)
    python -m repro policy --times times.csv --alpha 0.1
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import itertools
import json
import os
import sys
import time

import numpy as np

from repro import experiments
from repro.algorithms.base import TrainerConfig
from repro.experiments import (
    build_scenario,
    get_scenario_family,
    heterogeneous_scenario,
    homogeneous_scenario,
    make_workload,
    render_table,
    run_comparison,
    time_to_loss_speedups,
)
from repro.experiments.executors import (
    WorkQueue,
    make_executor,
    run_queue_worker,
)
from repro.experiments.reporting import format_worker_health
from repro.experiments.sweeps import (
    SCENARIO_KINDS,
    RunSpec,
    ScenarioSpec,
    SweepProgress,
    SweepSpec,
    WorkloadSpec,
    aggregate_sweep,
    run_sweep,
)
from repro.core.policy import generate_policy
from repro.graph import Topology

__all__ = ["main", "build_parser"]

# `repro figure` flag -> the keyword it sets.
_FIGURE_FLAGS = {
    "sim_time": "max_sim_time",
    "samples": "num_samples",
    "seed": "seed",
    "parallel": "parallel",
}


def _parse_scenario_param(item: str) -> tuple[str | None, str, list[str]]:
    """``"[family:]key=v1[,v2,...]"`` -> ``(family, key, values)``."""
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise ValueError(
            f"--scenario-param must look like [family:]key=value[,value...], got {item!r}"
        )
    family = None
    if ":" in key:
        family, _, key = key.partition(":")
    values = [value for value in raw.split(",") if value != ""]
    if not key or not values:
        raise ValueError(f"--scenario-param {item!r} names no key or no values")
    return family, key, values


def _scenario_grid(
    kinds: list[str], num_workers: int, param_items: list[str]
) -> list[ScenarioSpec]:
    """Expand families x per-family parameter grids into ScenarioSpecs.

    Unprefixed parameters attach to every listed family whose schema
    declares them (and must match at least one); ``family:``-prefixed ones
    pin a single listed family. Multiple values cross-product per family.
    """
    per_family: dict[str, dict[str, list[str]]] = {kind: {} for kind in kinds}
    for item in param_items:
        family, key, values = _parse_scenario_param(item)
        if family is not None:
            if family not in per_family:
                raise ValueError(
                    f"--scenario-param targets family {family!r}, which is "
                    f"not among --scenarios {kinds}"
                )
            get_scenario_family(family).param(key)  # unknown key -> error
            per_family[family][key] = values
        else:
            targets = [
                kind for kind in kinds
                if key in get_scenario_family(kind).param_names()
            ]
            if not targets:
                raise ValueError(
                    f"no selected scenario family accepts parameter {key!r}"
                )
            for kind in targets:
                per_family[kind][key] = values
    specs = []
    seen: set[ScenarioSpec] = set()
    for kind in kinds:
        grid = per_family[kind]
        keys = sorted(grid)
        for combo in itertools.product(*(grid[key] for key in keys)):
            spec = ScenarioSpec(
                kind=kind,
                num_workers=num_workers,
                params=tuple(zip(keys, combo)),
            )
            # Canonicalization can collapse raw combos into one spec (e.g.
            # edge_probability crossed with a non-randomized topology is
            # inert): enumerate each distinct cell once.
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
    return specs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NetMax reproduction: decentralized training experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="compare algorithms on one workload")
    compare.add_argument("--algorithms", nargs="+", default=["netmax", "adpsgd"])
    compare.add_argument("--model", default="resnet18")
    compare.add_argument("--dataset", default="cifar10")
    compare.add_argument("--workers", type=int, default=8)
    compare.add_argument("--batch-size", type=int, default=128)
    compare.add_argument("--samples", type=int, default=4096)
    compare.add_argument("--sim-time", type=float, default=300.0)
    compare.add_argument("--homogeneous", action="store_true")
    compare.add_argument("--scenario", choices=sorted(SCENARIO_KINDS), default=None,
                        help="scenario family from the registry "
                             "(overrides --homogeneous)")
    compare.add_argument("--scenario-param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one scenario parameter (repeatable)")
    compare.add_argument("--seed", type=int, default=0)

    figure = sub.add_parser("figure", help="regenerate a paper table/figure")
    figure.add_argument(
        "name", choices=sorted({*experiments.PAPER_EXPERIMENTS, "fig3", "scalability"})
    )
    figure.add_argument("--sim-time", type=float, default=None)
    figure.add_argument("--samples", type=int, default=None)
    figure.add_argument("--seed", type=int, default=None, help="default 0")
    figure.add_argument("--parallel", type=int, default=None,
                        help="worker processes for the figure's training runs")

    sweep = sub.add_parser(
        "sweep", help="run an algorithm x seed x scenario grid, in parallel"
    )
    sweep.add_argument("--algorithms", nargs="+", default=["netmax", "adpsgd"])
    sweep.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2, 3])
    sweep.add_argument("--scenarios", nargs="+", choices=sorted(SCENARIO_KINDS),
                       default=["heterogeneous"])
    sweep.add_argument("--scenario-param", action="append", default=[],
                       metavar="[FAMILY:]KEY=V1[,V2...]",
                       help="per-cell scenario parameter grid: repeatable; "
                            "comma-separated values cross-product; an "
                            "optional FAMILY: prefix pins one family")
    sweep.add_argument("--workers", type=int, default=8)
    sweep.add_argument("--model", default="mobilenet")
    sweep.add_argument("--dataset", default="mnist")
    sweep.add_argument("--batch-size", type=int, default=32)
    sweep.add_argument("--samples", type=int, default=512)
    sweep.add_argument("--sim-time", type=float, default=60.0)
    sweep.add_argument("--max-epochs", type=float, default=None)
    sweep.add_argument("--parallel", type=int, default=0,
                       help="worker processes (0/1 = sequential); implies "
                            "--backend process when > 1")
    sweep.add_argument("--backend",
                       choices=["inline", "process", "queue", "batched"],
                       default=None,
                       help="execution backend (default: inline, or process "
                            "when --parallel > 1); all backends produce "
                            "bit-identical results (batched advances "
                            "compatible cells in lockstep through one "
                            "vectorized engine)")
    sweep.add_argument("--queue-dir", default=None,
                       help="shared directory for the queue backend's "
                            "file-based work broker")
    sweep.add_argument("--num-queue-workers", type=int, default=1,
                       help="local worker processes to spawn for the queue "
                            "backend (0 = rely on external sweep-worker "
                            "processes joining --queue-dir)")
    sweep.add_argument("--lease-timeout-s", type=float, default=30.0,
                       help="queue backend: reclaim a cell whose worker "
                            "heartbeat counter has not advanced for this "
                            "long (worker presumed dead); minimum 1.0")
    sweep.add_argument("--lease-batch", type=int, default=1,
                       help="queue backend: cells a worker claims per "
                            "directory scan (amortizes scan overhead for "
                            "sub-second cells)")
    sweep.add_argument("--max-attempts", type=int, default=3,
                       help="queue backend: per-cell retry budget before a "
                            "cell fails the sweep")
    sweep.add_argument("--stream-interval-s", type=float, default=0.0,
                       help="re-render the aggregate table to stderr at most "
                            "this often as cells land (0 = only the final "
                            "table; --json-summary always updates "
                            "incrementally)")
    sweep.add_argument("--cache-dir", default=None,
                       help="directory for the on-disk result cache "
                            "(queue backend defaults to QUEUE_DIR/results)")
    sweep.add_argument("--force", action="store_true",
                       help="re-run cells even when cached")
    sweep.add_argument("--dry-run", action="store_true",
                       help="list the grid cells without running anything")
    sweep.add_argument("--json-summary", default=None, metavar="PATH",
                       help="write a machine-readable run summary "
                            "{cells, executed, cached, backend, wall_s} "
                            "to PATH")

    worker = sub.add_parser(
        "sweep-worker",
        help="join an existing sweep queue directory and execute cells",
    )
    worker.add_argument("--queue-dir", required=True,
                        help="queue directory of a running/enqueued "
                             "--backend queue sweep (may be on a shared "
                             "filesystem)")
    worker.add_argument("--poll-interval-s", type=float, default=0.2,
                        help="sleep between claim attempts when idle")
    worker.add_argument("--drain-timeout-s", type=float, default=10.0,
                        help="exit after this long with nothing claimable")
    worker.add_argument("--max-cells", type=int, default=None,
                        help="exit after executing this many cells")
    worker.add_argument("--lease-batch", type=int, default=None,
                        help="cells to claim per directory scan (default: "
                             "the coordinator's published setting)")
    worker.add_argument("--json-summary", default=None, metavar="PATH",
                        help="write {worker, executed, skipped, failed, "
                             "reclaimed} to PATH on exit")

    status = sub.add_parser(
        "sweep-status",
        help="inspect a sweep queue directory: depths, runs, worker health",
    )
    status.add_argument("--queue-dir", required=True,
                        help="queue directory of a --backend queue sweep")
    status.add_argument("--json", action="store_true",
                        help="print the full machine-readable snapshot "
                             "instead of the human summary")

    policy = sub.add_parser("policy", help="run Algorithm 3 on a time matrix")
    policy.add_argument("--times", required=True, help="CSV file, MxM iteration times")
    policy.add_argument("--alpha", type=float, default=0.1)
    policy.add_argument("--outer-rounds", type=int, default=10)
    policy.add_argument("--inner-rounds", type=int, default=10)

    return parser


def _run_compare(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        overrides = {}
        for item in args.scenario_param:
            family, key, values = _parse_scenario_param(item)
            if family is not None and family != args.scenario:
                print(f"error: --scenario-param targets family {family!r} but "
                      f"--scenario is {args.scenario!r}", file=sys.stderr)
                return 2
            if len(values) != 1:
                print(f"error: compare takes single-valued scenario params, got {item!r}",
                      file=sys.stderr)
                return 2
            overrides[key] = values[0]
        try:
            scenario = build_scenario(
                args.scenario, num_workers=args.workers, seed=args.seed, **overrides
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    elif args.scenario_param:
        print("error: --scenario-param needs --scenario", file=sys.stderr)
        return 2
    else:
        scenario = (
            homogeneous_scenario(args.workers)
            if args.homogeneous
            else heterogeneous_scenario(args.workers, seed=args.seed)
        )
    workload = make_workload(
        args.model,
        args.dataset,
        num_workers=args.workers,
        batch_size=args.batch_size,
        num_samples=args.samples,
        seed=args.seed,
    )
    config = TrainerConfig(
        max_sim_time=args.sim_time,
        eval_interval_s=max(5.0, args.sim_time / 25),
        seed=args.seed,
    )
    try:
        results = run_comparison(args.algorithms, scenario, workload, config)
    except ValueError as error:
        # e.g. a churn scenario paired with a churn-incapable algorithm.
        print(f"error: {error}", file=sys.stderr)
        return 2
    speedups = time_to_loss_speedups(results, reference=args.algorithms[0])
    rows = []
    for name in args.algorithms:
        summary = results[name].costs.summary()
        rows.append([
            name,
            summary["computation_cost"],
            summary["communication_cost"],
            summary["epoch_time"],
            results[name].history.final_loss(),
            results[name].history.best_accuracy(),
            speedups[name],
        ])
    print(render_table(
        ["algorithm", "comp_s", "comm_s", "epoch_s", "loss", "best_acc",
         f"speedup_vs_{args.algorithms[0]}"],
        rows,
        title=f"{scenario.name}: {args.model} on {args.dataset}",
    ))
    return 0


def _run_figure(args: argparse.Namespace) -> int:
    """``regenerate`` a registry id; Fig. 3 (analytic) and the scalability
    measurement are plain functions. A flag the figure does not read exits
    2 before anything runs instead of being silently dropped."""
    if args.name == "fig3":
        function, reads = experiments.figure3_iteration_time, set()
    elif args.name == "scalability":
        function, reads = experiments.figure_scalability, {"max_sim_time", "seed"}
    else:
        function = functools.partial(experiments.regenerate, args.name)
        reads = {"seed", "parallel", *experiments.PAPER_EXPERIMENTS[args.name].scale}
    kwargs = {
        keyword: getattr(args, flag)
        for flag, keyword in _FIGURE_FLAGS.items()
        if getattr(args, flag) is not None
    }
    unread = [
        "--" + flag.replace("_", "-")
        for flag, keyword in _FIGURE_FLAGS.items()
        if keyword in kwargs and keyword not in reads
    ]
    if unread:
        print(f"error: {args.name} does not read {', '.join(unread)}",
              file=sys.stderr)
        return 2
    try:
        output = function(**kwargs)
    except ValueError as error:
        # e.g. --samples below the dataset's class count: a figure's grids
        # are specs, and a spec that cannot run fails at construction.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(output.render())
    return 0


def _write_json_summary(path: str | None, payload: dict) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _make_stream(args: argparse.Namespace):
    """Incremental progress hook for ``repro sweep``.

    Every snapshot refreshes ``--json-summary`` (same keys as the final
    summary plus ``"in_progress": true``, so file-watching orchestration
    can distinguish a mid-drain summary from the finished one -- the final
    write drops the marker). With ``--stream-interval-s > 0`` the
    aggregate table also re-renders to stderr, rate-limited, as cells
    land. The final snapshot of a sweep is bit-identical to the batch
    aggregation (it is built from the same outcomes), so streaming never
    changes what the run prints at the end.
    """
    start = time.monotonic()
    last_render = start

    def stream(progress: SweepProgress) -> None:
        nonlocal last_render
        if not progress.done:
            executed = sum(
                1 for outcome in progress.outcomes if not outcome.from_cache
            )
            _write_json_summary(args.json_summary, {
                "cells": progress.total,
                "executed": executed,
                "cached": progress.completed - executed,
                "backend": progress.backend,
                "wall_s": round(time.monotonic() - start, 3),
                "in_progress": True,
            })
        if args.stream_interval_s > 0 and not progress.done:
            now = time.monotonic()
            if now - last_render >= args.stream_interval_s:
                last_render = now
                print(progress.aggregate().render(), file=sys.stderr)

    return stream


def _sweep_monitor_period(algorithms, sim_time):
    """``(monitored, period)``: the swept algorithms that run a Network
    Monitor and the ``monitor_period_s`` the sweep gives them -- a quarter of
    a horizon under four of the monitor's default periods, else nobody.

    A policy staged by a tick is adopted at each worker's next iteration, so
    a cell whose only tick lands on the horizon (``--sim-time 60`` against
    the 60 s default) would report NetMax on its uniform fallback.
    """
    from repro.algorithms.netmax import NetMaxTrainer
    from repro.algorithms.registry import TRAINER_REGISTRY

    default = inspect.signature(NetMaxTrainer).parameters["monitor_period_s"].default
    if sim_time >= 4 * default:
        return [], default
    monitored = [
        name for name in algorithms
        if issubclass(TRAINER_REGISTRY[name.lower()], NetMaxTrainer)
    ]
    return monitored, sim_time / 4


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.algorithms.registry import trainer_names

    unknown = [a for a in args.algorithms if a.lower() not in trainer_names()]
    if unknown:
        # Validate upfront so --dry-run is a trustworthy preflight.
        print(f"error: unknown algorithm(s) {unknown}; valid: {trainer_names()}",
              file=sys.stderr)
        return 2
    backend = args.backend
    if backend is None:
        backend = "process" if args.parallel > 1 else "inline"
    if backend == "queue" and args.queue_dir is None:
        print("error: --backend queue requires --queue-dir", file=sys.stderr)
        return 2
    monitored, period = _sweep_monitor_period(args.algorithms, args.sim_time)
    if monitored:
        print(
            f"note: --sim-time {args.sim_time:g} is under four monitor periods; "
            f"{', '.join(monitored)} run with monitor_period_s = {period:g}",
            file=sys.stderr,
        )
    try:
        spec = SweepSpec(
            algorithms=tuple(args.algorithms),
            seeds=tuple(args.seeds),
            scenarios=tuple(
                _scenario_grid(args.scenarios, args.workers, args.scenario_param)
            ),
            workload=WorkloadSpec(
                model=args.model,
                dataset=args.dataset,
                batch_size=args.batch_size,
                num_samples=args.samples,
            ),
            run=RunSpec(max_sim_time=args.sim_time, max_epochs=args.max_epochs),
            trainer_kwargs=tuple(
                (name, (("monitor_period_s", period),)) for name in monitored
            ),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    cells = spec.cells()
    if args.dry_run:
        print(render_table(
            ["algorithm", "seed", "scenario", "cache_key"],
            [[c.algorithm, c.seed, c.scenario.label(), c.cache_key()[:12]]
             for c in cells],
            title=f"sweep grid: {len(cells)} cell(s) (dry run)",
        ))
        _write_json_summary(args.json_summary, {
            "cells": len(cells), "executed": 0, "cached": 0,
            "backend": "dry-run", "wall_s": 0.0,
        })
        return 0
    try:
        executor = make_executor(
            backend,
            parallel=args.parallel,
            queue_dir=args.queue_dir,
            num_queue_workers=args.num_queue_workers,
            lease_timeout_s=args.lease_timeout_s,
            max_attempts=args.max_attempts,
            progress=lambda message: print(message, file=sys.stderr),
            lease_batch=args.lease_batch,
        )
    except ValueError as error:
        # e.g. a lease timeout below the staleness-observation floor.
        print(f"error: {error}", file=sys.stderr)
        return 2
    stream = _make_stream(args) if (args.json_summary is not None
                                    or args.stream_interval_s > 0) else None
    try:
        sweep = run_sweep(
            spec, cache_dir=args.cache_dir, force=args.force,
            executor=executor, stream=stream,
        )
    except RuntimeError as error:
        # e.g. queue cells that exhausted their retry budget. Overwrite any
        # stale summary from a previous run so file-watching orchestration
        # never mistakes this failure for the earlier success.
        print(f"error: {error}", file=sys.stderr)
        _write_json_summary(args.json_summary, {
            "cells": len(cells), "backend": backend, "error": str(error),
        })
        return 1
    print(aggregate_sweep(sweep).render())
    _write_json_summary(args.json_summary, sweep.summary())
    return 0


def _run_sweep_worker(args: argparse.Namespace) -> int:
    summary = run_queue_worker(
        args.queue_dir,
        poll_interval_s=args.poll_interval_s,
        drain_timeout_s=args.drain_timeout_s,
        max_cells=args.max_cells,
        progress=lambda message: print(message, file=sys.stderr),
        lease_batch=args.lease_batch,
    )
    print(f"worker {summary.worker}: {summary.executed} cell(s) executed, "
          f"{summary.skipped} already done, {summary.failed} failed "
          f"attempt(s), {summary.reclaimed} stale lease(s) reclaimed; "
          f"{summary.busy_s:.2f}s busy, {summary.idle_s:.2f}s idle")
    _write_json_summary(args.json_summary, dataclasses.asdict(summary))
    # Nonzero on any failed attempt so orchestration (cron, job arrays)
    # can spot an unhealthy worker host without watching the coordinator.
    return 1 if summary.failed else 0


def _run_sweep_status(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.queue_dir):
        print(f"error: {args.queue_dir} is not a directory", file=sys.stderr)
        return 2
    snapshot = WorkQueue(args.queue_dir).status_snapshot()
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"queue {snapshot['queue_dir']}: {snapshot['pending']} pending, "
          f"{snapshot['leased']} leased, {snapshot['completed']} completed, "
          f"{len(snapshot['failed'])} failed")
    for run in snapshot["runs"]:
        state = ("active" if run["active"]
                 else "inactive" if run["active"] is not None else "unknown")
        print(f"  run {run['run_id'][:12]} [{state}]: "
              f"{run['pending']} pending, {run['leased']} leased")
    health = format_worker_health(snapshot["workers"])
    if health:
        print(f"  {health}")
    if snapshot["stop"] is not None:
        print(f"  STOP marker present (run {snapshot['stop'][:12]})")
    return 0


def _run_policy(args: argparse.Namespace) -> int:
    times = np.loadtxt(args.times, delimiter=",")
    if times.ndim != 2 or times.shape[0] != times.shape[1]:
        print(f"error: expected a square CSV matrix, got shape {times.shape}",
              file=sys.stderr)
        return 2
    topology = Topology.fully_connected(times.shape[0])
    result = generate_policy(
        times,
        topology.indicator(),
        args.alpha,
        outer_rounds=args.outer_rounds,
        inner_rounds=args.inner_rounds,
    )
    print(f"rho={result.rho:.4f}  t_bar={result.t_bar:.5f}  "
          f"lambda2={result.lambda2:.5f}  "
          f"T_conv={result.predicted_convergence_time:.3f}")
    print(np.array_str(result.policy, precision=3, suppress_small=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "figure":
        return _run_figure(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "sweep-worker":
        return _run_sweep_worker(args)
    if args.command == "sweep-status":
        return _run_sweep_status(args)
    if args.command == "policy":
        return _run_policy(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

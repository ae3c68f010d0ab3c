"""Command-line interface: run comparisons and regenerate paper artifacts.

Examples::

    # Compare algorithms on the paper's heterogeneous cluster (a one-seed
    # sweep: each algorithm's row is its sweep cell's), then on the
    # homogeneous one
    python -m repro compare --algorithms netmax adpsgd allreduce \
        --model resnet18 --dataset cifar10 --workers 8 --sim-time 300
    python -m repro compare --algorithms netmax adpsgd --scenario homogeneous

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

    # Every family accepts the topology axis (full|ring|star|random|
    # expander); comma-separated values sweep graph families per cell
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
from repro.experiments import (
    get_scenario_family,
    paper,
    render_table,
    scenario_names,
)
from repro.experiments.executors import (
    MIN_LEASE_TIMEOUT_S,
    QueueExecutor,
    WorkQueue,
    make_executor,
    run_queue_worker,
)
from repro.experiments.reporting import format_worker_health
from repro.experiments.sweeps import (
    RunSpec,
    ScenarioSpec,
    SweepProgress,
    SweepSpec,
    WorkloadSpec,
    aggregate_sweep,
    run_sweep,
)
from repro.core.policy import PolicyGenerationError, generate_policy
from repro.graph import Topology

__all__ = ["main", "build_parser"]

# `repro figure` flag -> the keyword it sets.
_FIGURE_FLAGS = {
    "sim_time": "max_sim_time",
    "samples": "num_samples",
    "seed": "seed",
    "parallel": "parallel",
}

# `repro sweep` flag -> the one backend that reads it (every backend reads
# every other flag).
_BACKEND_FLAGS = {
    "parallel": "process",
    "queue_dir": "queue",
    "num_queue_workers": "queue",
    "lease_timeout_s": "queue",
    "lease_batch": "queue",
    "max_attempts": "queue",
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
    compare.add_argument("--scenario", default="heterogeneous",
                         help="scenario family from the catalog: "
                              f"{', '.join(scenario_names())}")
    compare.add_argument("--scenario-param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override one scenario parameter (repeatable)")
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(max_epochs=None)

    figure = sub.add_parser("figure", help="regenerate a paper table/figure")
    figure.add_argument(
        "name",
        help=", ".join(sorted({*experiments.PAPER_EXPERIMENTS, "fig3"})),
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
    sweep.add_argument("--scenarios", nargs="+", default=["heterogeneous"],
                       help="scenario families from the catalog: "
                            f"{', '.join(scenario_names())}")
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
    sweep.add_argument("--parallel", type=int, default=None,
                       help="process backend: worker processes; without "
                            "--backend, > 1 selects the process backend and "
                            "0/1 the inline one")
    sweep.add_argument("--backend", default=None,
                       help="execution backend: inline, process, queue or "
                            "batched (default: inline, or process "
                            "when --parallel > 1); all backends produce "
                            "bit-identical results (batched advances "
                            "compatible cells in lockstep through one "
                            "vectorized engine)")
    sweep.add_argument("--queue-dir", default=None,
                       help="shared directory for the queue backend's "
                            "file-based work broker")
    # Shown, not set: QueueExecutor spells each queue default once.
    queue_default = {name: parameter.default for name, parameter
                     in inspect.signature(QueueExecutor).parameters.items()}
    sweep.add_argument("--num-queue-workers", type=int, default=None,
                       help="queue backend: local worker processes to spawn "
                            f"(default {queue_default['num_workers']}; 0 = "
                            "rely on external sweep-worker processes joining "
                            "--queue-dir)")
    sweep.add_argument("--lease-timeout-s", type=float, default=None,
                       help="queue backend: reclaim a cell whose worker "
                            "heartbeat counter has not advanced for this "
                            "long (worker presumed dead; default "
                            f"{queue_default['lease_timeout_s']:g}, minimum "
                            f"{MIN_LEASE_TIMEOUT_S:g})")
    sweep.add_argument("--lease-batch", type=int, default=None,
                       help="queue backend: cells a worker claims per "
                            "directory scan (default "
                            f"{queue_default['lease_batch']}; amortizes scan "
                            "overhead for sub-second cells)")
    sweep.add_argument("--max-attempts", type=int, default=None,
                       help="queue backend: per-cell retry budget before a "
                            "cell fails the sweep (default "
                            f"{queue_default['max_attempts']})")
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
    policy.add_argument("--times", required=True,
                        help="CSV file, MxM iteration times; the graph is the "
                             "positive off-diagonal entries")
    policy.add_argument("--alpha", type=float, default=0.1)
    policy.add_argument("--outer-rounds", type=int, default=10)
    policy.add_argument("--inner-rounds", type=int, default=10)

    return parser


def _run_compare(args: argparse.Namespace) -> int:
    """A one-seed sweep over one scenario, one row per algorithm (the
    reducer the paper's figures use), with the speedup against the first."""
    try:
        spec = _sweep_spec(args, seeds=[args.seed], kinds=[args.scenario])
        if len(spec.scenarios) != 1:
            raise ValueError(
                "compare takes single-valued scenario params, got "
                f"{args.scenario_param}"
            )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    first = args.algorithms[0]
    table = paper._rows(
        [({}, run_sweep(spec))],
        headers=("algorithm", "computation_s", "communication_s", "epoch_s",
                 "final_loss", "accuracy", f"speedup_vs_{first}"),
        speedup_vs=first,
    )
    (scenario,) = spec.scenarios
    print(render_table(
        table["headers"],
        table["rows"],
        title=f"{scenario.label()}: {args.model} on {args.dataset}",
    ))
    return 0


def _run_figure(args: argparse.Namespace) -> int:
    """``regenerate`` a registry id; Fig. 3 (analytic, reads no flag) is
    the one figure that is a plain function. A flag the figure does not
    read exits 2 before anything runs instead of being silently dropped."""
    if args.name == "fig3":
        function, reads = experiments.figure3_iteration_time, set()
    else:
        function = functools.partial(experiments.regenerate, args.name)
        experiment = experiments.PAPER_EXPERIMENTS.get(args.name)
        # An unknown id reads every flag, so regenerate's error names it.
        reads = (set(_FIGURE_FLAGS.values()) if experiment is None
                 else {"seed", "parallel", *experiment.scale})
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


def _sweep_spec(
    args: argparse.Namespace, seeds: list[int], kinds: list[str]
) -> SweepSpec:
    """The grid ``compare`` and ``sweep`` run, from the flags they share.

    Raises ``ValueError`` for anything that cannot run -- an unknown
    algorithm first, before a cell executes or ``--dry-run`` lists one.
    Prints the monitor-period note once the spec has built (see
    :func:`_sweep_monitor_period`).
    """
    from repro.algorithms.registry import trainer_names

    unknown = [a for a in args.algorithms if a.lower() not in trainer_names()]
    if unknown:
        raise ValueError(f"unknown algorithm(s) {unknown}; valid: {trainer_names()}")
    monitored, period = _sweep_monitor_period(args.algorithms, args.sim_time)
    spec = SweepSpec(
        algorithms=tuple(args.algorithms),
        seeds=tuple(seeds),
        scenarios=tuple(_scenario_grid(kinds, args.workers, args.scenario_param)),
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
    # After the spec: a grid that cannot run prints its error line alone.
    if monitored:
        print(
            f"note: --sim-time {args.sim_time:g} is under four monitor periods; "
            f"{', '.join(monitored)} run with monitor_period_s = {period:g}",
            file=sys.stderr,
        )
    return spec


def _run_sweep(args: argparse.Namespace) -> int:
    backend = args.backend
    if backend is None:
        backend = "process" if (args.parallel or 0) > 1 else "inline"
    unread = [
        "--" + flag.replace("_", "-")
        for flag, reader in _BACKEND_FLAGS.items()
        if getattr(args, flag) is not None and reader != backend
        # Without --backend, --parallel is read: it picks the backend.
        and not (flag == "parallel" and args.backend is None)
    ]
    if unread:
        print(f"error: --backend {backend} does not read {', '.join(unread)}",
              file=sys.stderr)
        return 2
    if backend == "queue" and args.queue_dir is None:
        print("error: --backend queue requires --queue-dir", file=sys.stderr)
        return 2
    try:
        # Before the spec, so a dry run checks the executor settings too and
        # an unrunnable setting prints its error line without the note.
        executor = make_executor(
            backend,
            parallel=args.parallel or 0,
            queue_dir=args.queue_dir,
            num_queue_workers=args.num_queue_workers,
            lease_timeout_s=args.lease_timeout_s,
            max_attempts=args.max_attempts,
            progress=lambda message: print(message, file=sys.stderr),
            lease_batch=args.lease_batch,
        )
        spec = _sweep_spec(args, seeds=args.seeds, kinds=args.scenarios)
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
    try:
        summary = run_queue_worker(
            args.queue_dir,
            poll_interval_s=args.poll_interval_s,
            drain_timeout_s=args.drain_timeout_s,
            max_cells=args.max_cells,
            progress=lambda message: print(message, file=sys.stderr),
            lease_batch=args.lease_batch,
        )
    except ValueError as error:
        # e.g. a poll interval of 0, which would spin instead of polling.
        print(f"error: {error}", file=sys.stderr)
        return 2
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
          f"{len(snapshot['failed'])} failed, {snapshot['reclaimed']} reclaimed")
    for run in snapshot["runs"]:
        state = ("active" if run["active"]
                 else "inactive" if run["active"] is not None else "unknown")
        print(f"  run {run['run_id'][:12]} [{state}]: "
              f"{run['pending']} pending, {run['leased']} leased, "
              f"{run['retrying']} retrying, {run['quarantined']} quarantined")
    health = format_worker_health(snapshot["workers"])
    if health:
        print(f"  {health}")
    return 0


def _run_policy(args: argparse.Namespace) -> int:
    try:
        times = np.loadtxt(args.times, delimiter=",")
    except (OSError, ValueError) as error:
        # A missing file, a non-numeric cell or a ragged row.
        return _policy_error(f"cannot read {args.times}: {error}")
    if times.ndim != 2 or times.shape[0] != times.shape[1] or times.shape[0] < 2:
        return _policy_error(f"expected a square CSV matrix, got shape {times.shape}")
    if not np.all(np.isfinite(times) & (times >= 0)):
        return _policy_error("iteration times must be finite and non-negative")
    adjacency = times > 0
    np.fill_diagonal(adjacency, False)
    if not np.array_equal(adjacency, adjacency.T):
        pairs = np.argwhere(adjacency != adjacency.T)
        i, j = pairs[0].tolist()
        return _policy_error(
            f"the graph must be undirected: t[{i},{j}] and t[{j},{i}] are not "
            "both positive"
        )
    topology = Topology(adjacency)
    if not topology.is_connected():
        return _policy_error("the graph of positive entries is disconnected")
    try:
        result = generate_policy(
            times,
            topology.indicator(),
            args.alpha,
            outer_rounds=args.outer_rounds,
            inner_rounds=args.inner_rounds,
        )
    except PolicyGenerationError as exc:
        return _policy_error(str(exc))
    print(f"rho={result.rho:.4f}  t_bar={result.t_bar:.5f}  "
          f"lambda2={result.lambda2:.5f}  "
          f"T_conv={result.predicted_convergence_time:.3f}")
    print(np.array_str(result.policy, precision=3, suppress_small=True))
    return 0


def _policy_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


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

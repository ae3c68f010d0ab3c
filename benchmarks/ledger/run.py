#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end to end and layer by layer.

Two ways in (README.md has the tables):

- the ledger, for people::

      PYTHONPATH=src python benchmarks/ledger/run.py [--seed S]
          [--workloads NAME ...] [--passes 3] [--seconds 20] [--smoke]
          [--out bench-json/BENCH_ledger.json]

  runs every workload ``--passes`` times with tracing off and once traced,
  prints every metric by name with its unit, writes the result file and
  ``BENCH_ledger_trace.json`` next to it, and exits non-zero if any output
  check failed;

- one measurement, for the driver behind ``BENCHMARK.json``::

      python3 benchmarks/ledger/run.py --workload NAME --seed N
          --seconds S --trace 0|1

  prints one JSON object as the last line of stdout: with ``--trace 0`` the
  end-to-end metrics of one pass of ``S`` seconds, with ``--trace 1`` the
  per-layer metrics of one traced pass (plus a short untraced pass for the
  ratios taken against an untraced wall).

A pass is a fresh interpreter of this same file (``--pass``), so that
``setup_s`` -- spawn to the start of the first timed call -- includes the
interpreter and ``import repro``. Inside it the timed call repeats, each
time on freshly built inputs and an empty cache, until ``--seconds`` have
gone by, and the pass reports every repetition: the end-to-end numbers are
centres over repetitions (``center_rep``), because on the reference box a
single 6 s shot reads +-10% (noisy neighbours, in bursts of seconds) where
the centre of ten short repetitions reads +-3%. ``--smoke`` runs the passes
in this process instead, one repetition each, to fit the tier-1 time budget.
"""

import argparse
import contextlib
import functools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
SRC_DIR = LEDGER_DIR.parents[1] / "src"
if str(LEDGER_DIR) not in sys.path:
    sys.path.insert(0, str(LEDGER_DIR))

import layers  # noqa: E402  (needs LEDGER_DIR on the path; imports no repro)

WORKLOAD_NAMES = (
    "sweep-reference", "event-loop", "batched-lockstep", "policy-adaptive",
    "sweep-service",
)
# A run reports the median of at least this many set-ups; those beyond its
# passes are set-up-only probes.
SETUPS_PER_RUN = 3
# Repetitions of the timed call a pass makes at least, however slow the box.
MIN_REPS = 3
# The contract allows a run 180 s; a pass that takes longer is a failure.
PASS_TIMEOUT_S = 170.0


# -- one pass (runs in the child) ----------------------------------------------


def run_pass(workload, seed, size, trace, work_dir, spawned_at, *,
             seconds=0.0, min_reps=1, setup_only=False):
    """One pass: set up, then repeat the timed call until ``seconds`` have
    gone by (and at least ``min_reps`` times), each repetition on freshly
    built inputs and an empty cache; verify every repetition."""
    import_start = time.perf_counter()
    import repro.cli  # noqa: F401  (timed: what every `repro` command pays first)
    cli_import_s = time.perf_counter() - import_start
    import workloads
    from tracer import Tracer

    tracer = Tracer() if trace else None
    if tracer is not None:
        layers.install(tracer)

    def phase(name):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    record = {"reps": [], "attempted": 0, "failed": 0, "failures": []}
    digests = set()
    started = time.monotonic()
    try:
        while True:
            instance = workloads.WORKLOADS[workload](seed, size, work_dir, tracer)
            with phase("ledger.setup"):
                instance.setup()
            if "setup_s" not in record:
                record["setup_s"] = time.monotonic() - spawned_at
            if setup_only:
                return record
            rep = {}
            cpu_start = workloads.cpu_seconds()
            wall_start = time.perf_counter()
            with phase("ledger.timed"):
                instance.cold()
            rep["wall_s"] = time.perf_counter() - wall_start
            rep["cpu_s"] = workloads.cpu_seconds() - cpu_start
            instance.after_cold()
            # The traced pass repeats the warm phase only where a cache makes
            # it a different code path (loads, aggregation); re-running op 0
            # would count its events twice.
            if tracer is None or instance.has_cache:
                with phase("ledger.warm"):
                    rep["warm_wall_s"] = instance.warm()
            record["reps"].append(rep)
            last = (len(record["reps"]) >= min_reps
                    and time.monotonic() - started >= seconds)
            if last:
                record["peak_rss_mb"] = workloads.peak_rss_mb()
                if tracer is not None:
                    tracer.uninstall()  # verification runs unwrapped
            # Invariants and the digest on every repetition; the bitwise
            # re-execution sample once, after the memory reading.
            verdict = instance.verify(recheck=last)
            record["attempted"] += verdict["attempted"]
            record["failed"] += verdict["failed"]
            record["failures"] += verdict["failures"]
            digests.add(verdict["results_digest"])
            if last:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["results_digest"] = verdict["results_digest"]
    record["digest_stable"] = len(digests) == 1
    events, chain_s = workloads.raw_engine_events(64, 100_000)
    instance.stats["raw_engine_events_per_s"] = events / chain_s
    instance.stats["cli_import_s"] = cli_import_s
    record["stats"] = instance.stats
    if tracer is not None:
        record["totals"] = tracer.self_seconds_by_name()
        record["trace"] = tracer.payload()
    return record


def pass_main(args):
    record = run_pass(
        args.workload, args.seed, args.size, bool(args.trace), args.work_dir,
        args.spawned_at, seconds=args.seconds, min_reps=args.min_reps,
        setup_only=args.setup_only,
    )
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


# -- launching passes (runs in the parent) -------------------------------------


class PassFailed(RuntimeError):
    """A pass crashed, timed out, or wrote no record."""


def launch_pass(workload, seed, size, trace, *, work_root, inline,
                seconds=0.0, min_reps=1, setup_only=False):
    """Run one pass -- in a fresh interpreter, or here when ``inline`` --
    in a scratch directory of its own that is removed afterwards."""
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root, prefix="pass-") as work_dir:
        if inline:
            return run_pass(workload, seed, size, trace, work_dir,
                            time.monotonic(), seconds=seconds,
                            min_reps=min_reps, setup_only=setup_only)
        result_path = os.path.join(work_dir, "record.json")
        command = [
            sys.executable, str(Path(__file__).resolve()), "--pass",
            "--workload", workload, "--seed", str(seed), "--size", size,
            "--trace", str(int(trace)), "--seconds", repr(seconds),
            "--min-reps", str(min_reps), "--work-dir", work_dir,
            "--result", result_path,
        ]
        if setup_only:
            command.append("--setup-only")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command += ["--spawned-at", repr(time.monotonic())]
        try:
            done = subprocess.run(
                command, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as error:
            raise PassFailed(f"{workload}: pass timed out") from error
        if done.returncode != 0 or not os.path.exists(result_path):
            raise PassFailed(
                f"{workload}: pass exited {done.returncode}\n{done.stderr[-4000:]}"
            )
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle)


def summarize(values, repetitions):
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "passes": len(values),
        "repetitions": repetitions,
        "values": list(values),
    }


def measure_end_to_end(launch, *, passes, seconds, min_reps, setups):
    """``passes`` untraced passes of ``seconds`` each, then set-up-only
    probes until ``setups`` set-ups have been timed. A pass's ``wall_s``,
    ``cpu_s`` and ``warm_wall_s`` are the centres of its repetitions
    (``center_rep``); every metric is then summarized (median, min, max)
    over the passes."""
    records = [
        launch(False, seconds=seconds, min_reps=min_reps) for _ in range(passes)
    ]
    setup_times = [record["setup_s"] for record in records]
    while len(setup_times) < setups:
        setup_times.append(launch(False, setup_only=True)["setup_s"])
    repetitions = sum(len(record["reps"]) for record in records)
    end_to_end = {}
    for name, _, _ in layers.END_TO_END:
        if name == "setup_s":
            values = setup_times
        elif name == "peak_rss_mb":
            values = [record[name] for record in records]
        else:
            values = [center_rep(record, name) for record in records]
        end_to_end[name] = summarize(values, repetitions)
    return records, end_to_end


def center_rep(record, name):
    """A pass's value of a timing: the Hodges-Lehmann centre of its
    repetitions (the median of all pairwise means). On roughly symmetric
    scatter -- ``sweep-service``'s drain ends on a poll back-off that is
    uniform over 0.4-1.2 s -- it is about as steady as the mean, where the
    plain median of ten values is half again as wide; and like the median it
    shrugs off the few repetitions a noisy-neighbour burst stretches."""
    values = [rep[name] for rep in record["reps"]]
    return statistics.median(
        (a + b) / 2.0 for i, a in enumerate(values) for b in values[i:]
    )


def measure_per_layer(launch, untraced):
    """One traced pass (a single repetition), read against the untraced
    pass ``untraced``."""
    traced = launch(True)
    totals = traced.pop("totals")
    trace = traced.pop("trace")
    metrics = layers.per_layer_metrics(
        totals,
        traced_wall_s=traced["reps"][0]["wall_s"],
        untraced_wall_s=center_rep(untraced, "wall_s"),
        stats=traced["stats"],
        broker=untraced["stats"],
        span_count=len(trace["spans"]),
    )
    shares = layers.layer_self_seconds(totals)
    return traced, metrics, shares, trace


def workload_report(workload, seed, size, work_root, inline, *, passes,
                    seconds, min_reps, setups=SETUPS_PER_RUN, trace=True):
    """Everything the ledger knows about one workload at one seed."""
    launch = functools.partial(
        launch_pass, workload, seed, size, work_root=work_root, inline=inline
    )
    records, e2e = measure_end_to_end(
        launch, passes=passes, seconds=seconds, min_reps=min_reps, setups=setups,
    )
    payload = None
    report = {"end_to_end": e2e}
    if trace:
        traced, report["per_layer"], report["layer_self_s"], payload = (
            measure_per_layer(launch, records[0])
        )
        records = records + [traced]
    report["attempted"] = sum(record["attempted"] for record in records)
    report["failed"] = sum(record["failed"] for record in records)
    report["failures"] = [f for record in records for f in record["failures"]]
    report["results_digest"] = records[0]["results_digest"]
    report["digest_stable"] = (
        all(record["digest_stable"] for record in records)
        and len({record["results_digest"] for record in records}) == 1
    )
    report["failed_share"] = report["failed"] / report["attempted"]
    report["correct"] = report["failed"] == 0 and report["digest_stable"]
    return report, payload


# -- the two front ends --------------------------------------------------------


UNITS = {name: unit for name, unit, _ in layers.END_TO_END + layers.PER_LAYER}


def driver_main(args):
    """One measurement in the contract's format (see BENCHMARK.json)."""
    work_root = os.path.join("bench-json", "ledger-work")
    if args.trace:
        # The untraced pass is only there for the ratios the per-layer
        # metrics take against an untraced wall: a third of the time is enough.
        report, _ = workload_report(
            args.workload, args.seed, "reference", work_root, False, passes=1,
            seconds=args.seconds / 3.0, min_reps=1, setups=1,
        )
    else:
        report, _ = workload_report(
            args.workload, args.seed, "reference", work_root, False, passes=1,
            seconds=args.seconds, min_reps=MIN_REPS, trace=False,
        )
    if args.trace:
        values = report["per_layer"]
    else:
        values = {name: cell["median"] for name, cell in report["end_to_end"].items()}
    for label, reason in report["failures"]:
        print(f"FAILED {label}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()
        },
    }))
    return 0 if report["correct"] else 1


def print_report(name, report):
    print(f"\n== {name} ==")
    for metric, cell in report["end_to_end"].items():
        print(f"  {metric:<44} {cell['median']:>14.4f} {UNITS[metric]:<9}"
              f" (min {cell['min']:.4f}, max {cell['max']:.4f} over"
              f" {cell['passes']} pass(es), {cell['repetitions']} repetitions)")
    print(f"  {'failed_share':<44} {report['failed_share']:>14.4f} fraction "
          f" ({report['failed']} of {report['attempted']} ops)")
    print(f"  results_digest {report['results_digest']}"
          f"{'' if report['digest_stable'] else '  ** differs between passes **'}")
    for metric, value in report.get("per_layer", {}).items():
        print(f"  {metric:<44} {value:>14.4f} {UNITS[metric]}")
    shares = report.get("layer_self_s")
    if shares:
        total = sum(shares.values())
        ranked = sorted(shares.items(), key=lambda item: -item[1])
        print("  traced self time by layer: " + ", ".join(
            f"{layer} {100 * seconds / total:.1f}%" for layer, seconds in ranked
        ))
    for label, reason in report["failures"]:
        print(f"  FAILED {label}: {reason}")


def ledger_main(args):
    size = "smoke" if args.smoke else "reference"
    passes, seconds, min_reps = args.passes, args.seconds, MIN_REPS
    if args.smoke:
        passes, seconds, min_reps = 1, 0.0, 1
    out_path = Path(args.out)
    work_root = str(out_path.parent / "ledger-work")
    result = {
        "schema": 1,
        "seed": args.seed,
        "size": size,
        "passes": passes,
        "seconds_per_pass": seconds,
        "commit": os.environ.get("BENCH_COMMIT", "unknown"),
        "workloads": {},
    }
    traces = {}
    for name in args.workloads:
        report, traces[name] = workload_report(
            name, args.seed, size, work_root, args.smoke, passes=passes,
            seconds=seconds, min_reps=min_reps,
        )
        result["workloads"][name] = report
        print_report(name, report)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    trace_path = out_path.with_name(out_path.stem + "_trace.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "size": size, "workloads": traces}, handle)
    print(f"\nwrote {out_path} and {trace_path}")
    return 0 if all(r["correct"] for r in result["workloads"].values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES,
                        default=list(WORKLOAD_NAMES))
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one pass, everything in this process")
    parser.add_argument("--out", default="bench-json/BENCH_ledger.json")
    driver = parser.add_argument_group("one measurement (BENCHMARK.json)")
    driver.add_argument("--workload", choices=WORKLOAD_NAMES)
    driver.add_argument("--seconds", type=float, default=20.0,
                        help="how long one pass keeps repeating its timed call")
    driver.add_argument("--trace", type=int, choices=(0, 1), default=0)
    child = parser.add_argument_group("one pass (internal)")
    child.add_argument("--pass", dest="is_pass", action="store_true")
    child.add_argument("--size", choices=("reference", "smoke"),
                       default="reference")
    child.add_argument("--work-dir")
    child.add_argument("--result")
    child.add_argument("--spawned-at", type=float)
    child.add_argument("--setup-only", action="store_true")
    child.add_argument("--min-reps", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be >= 1")
    if args.is_pass:
        return pass_main(args)
    if not (SRC_DIR / "repro").is_dir():
        print(f"error: no program to measure: {SRC_DIR / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        if args.workload is not None:
            return driver_main(args)
        if args.smoke:
            sys.path.insert(0, str(SRC_DIR))
        return ledger_main(args)
    except PassFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

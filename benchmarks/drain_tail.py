#!/usr/bin/env python3
"""How long a queue sweep takes to return once its last cell has landed.

Runs the ledger's ``sweep-service`` cold op -- 128 cells of ~5 ms through
``QueueExecutor`` with two local worker processes, in a fresh queue
directory each time -- and reports, relative to the ``run_sweep`` call, the
first result file's mtime, the last result file's mtime and the return.
The *drain tail* (last result -> return) is the time the coordinator takes
to see the last landing and for its workers to see the run end and exit.
Each run also reports the coordinator's own CPU seconds (user + system of
this process, not of the workers), so a change that buys the tail with
extra coordinator wake-ups shows here.

Only public names are used, so the same file measures any checkout::

    python benchmarks/drain_tail.py --runs 10                                # this tree
    PYTHONPATH=/path/to/other/src python benchmarks/drain_tail.py --runs 10  # another

``docs/performance.md`` holds the numbers of record.
"""

import argparse
import importlib.util
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path


def service_spec(seed):
    """The ledger's ``sweep-service`` grid at reference size."""
    from repro.experiments.sweeps import (
        RunSpec, ScenarioSpec, SweepSpec, WorkloadSpec,
    )

    return SweepSpec(
        algorithms=("adpsgd", "saps"),
        seeds=tuple(1000 * seed + index for index in range(64)),
        scenarios=(ScenarioSpec("heterogeneous-static", 4),),
        workload=WorkloadSpec(model="mobilenet", dataset="mnist",
                              batch_size=32, num_samples=64),
        run=RunSpec(max_sim_time=0.5, eval_max_samples=16),
    )


def cpu_s():
    """User + system CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def cold_drain(spec):
    """(first result, last result, return) in seconds after the call, and
    the coordinator's CPU seconds over it."""
    from repro.experiments.executors import QueueExecutor, WorkQueue
    from repro.experiments.sweeps import run_sweep

    with tempfile.TemporaryDirectory() as work:
        queue_dir = os.path.join(work, "queue")
        cpu_before = cpu_s()
        started = time.time()
        run_sweep(spec, executor=QueueExecutor(queue_dir, num_workers=2))
        returned = time.time()
        cpu = cpu_s() - cpu_before
        results_dir = WorkQueue(queue_dir).default_results_dir()
        mtimes = [entry.stat().st_mtime for entry in os.scandir(results_dir)
                  if entry.name.endswith(".pkl")]
    return (min(mtimes) - started, max(mtimes) - started, returned - started,
            cpu)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if importlib.util.find_spec("repro") is None:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro

    print(f"measuring {Path(repro.__file__).resolve().parent}")
    spec = service_spec(args.seed)
    spec.cells()  # build the grid before the first timed call
    tails, cpus = [], []
    print("first_s  last_s  return_s  tail_s  coord_cpu_s")
    for _ in range(args.runs):
        first, last, returned, cpu = cold_drain(spec)
        tails.append(returned - last)
        cpus.append(cpu)
        print(f"{first:7.3f} {last:7.3f} {returned:9.3f} {tails[-1]:7.3f} "
              f"{cpu:12.3f}")
    print(f"drain tail median {statistics.median(tails):.3f} s over "
          f"{len(tails)} cold runs (max {max(tails):.3f} s)")
    print(f"coordinator cpu median {statistics.median(cpus):.3f} s per cold run")


if __name__ == "__main__":
    main()

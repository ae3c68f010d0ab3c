#!/usr/bin/env python3
"""Peak RSS of one process against the number of training runs it has done.

Repeats one operation in this process and prints the peak resident set size
(``ru_maxrss``) after each repetition. A run whose trainer is freed the
moment its result is returned holds the peak flat from the first
repetitions on; a trainer kept alive by a reference cycle waits for
Python's next full cyclic collection, so the peak climbs with the count.
Two operations:

- ``batched``: the ledger's ``batched-lockstep`` cold op -- 64 noise-free
  quadratic adpsgd cells (16 workers, 55 s) through ``BatchedSimulator``,
  then 16 MLP cells through ``BatchedExecutor``;
- ``sweep``: an inline 24-cell grid (3 algorithms x 8 seeds, resnet18 cost
  profile on 8 workers) through ``run_sweep``.

Only public names are used, so the same file measures any checkout::

    python benchmarks/rss_by_reps.py --op batched --reps 14                  # this tree
    PYTHONPATH=/path/to/other/src python benchmarks/rss_by_reps.py --op batched

``docs/performance.md`` holds the numbers of record.
"""

import argparse
import importlib.util
import resource
import sys
from pathlib import Path


def batched_op(rep):
    from repro.algorithms.base import TrainerConfig
    from repro.algorithms.registry import create_trainer
    from repro.experiments.executors import BatchedExecutor
    from repro.experiments.scenarios import (
        heterogeneous_scenario, make_quadratic_workload,
    )
    from repro.experiments.sweeps import (
        RunSpec, ScenarioSpec, SweepSpec, WorkloadSpec, run_sweep,
    )
    from repro.simulation.batched import BatchedSimulator

    scenario = heterogeneous_scenario(16, dynamic=False, seed=1)
    trainers = []
    for index in range(64):
        tasks, _, profile = make_quadratic_workload(16, noise_std=0.0, seed=index)
        config = TrainerConfig(max_sim_time=55.0, eval_interval_s=5.5, seed=index)
        trainers.append(create_trainer(
            "adpsgd", tasks, scenario.topology, scenario.links, profile, config
        ))
    BatchedSimulator(trainers).run()
    spec = SweepSpec(
        algorithms=("adpsgd", "saps"),
        seeds=tuple(100 * rep + index for index in range(8)),
        scenarios=(ScenarioSpec("heterogeneous-static", 8),),
        workload=WorkloadSpec(num_samples=256),
        run=RunSpec(max_sim_time=2.0),
    )
    run_sweep(spec, executor=BatchedExecutor())


def sweep_op(rep):
    from repro.experiments.sweeps import (
        RunSpec, ScenarioSpec, SweepSpec, WorkloadSpec, run_sweep,
    )

    spec = SweepSpec(
        algorithms=("adpsgd", "saps", "allreduce"),
        seeds=tuple(100 * rep + index for index in range(8)),
        scenarios=(ScenarioSpec("heterogeneous", 8),),
        workload=WorkloadSpec(model="resnet18", num_samples=512),
        run=RunSpec(max_sim_time=5.0),
    )
    run_sweep(spec)


OPS = {"batched": batched_op, "sweep": sweep_op}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--op", choices=sorted(OPS), default="batched")
    parser.add_argument("--reps", type=int, default=14)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    if importlib.util.find_spec("repro") is None:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro

    print(f"repro from {Path(repro.__file__).parent}")
    for rep in range(1, args.reps + 1):
        OPS[args.op](rep)
        print(f"after {rep:2d} repetitions: peak {peak_rss_mb():6.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""What a queue worker asks of the filesystem per cell.

Drains the ledger's ``sweep-service`` grid (128 cells) through one
coordinator with no local workers and one ``run_queue_worker`` on a thread
of this process, and counts, on the worker's side only, the atomic file
writes (per directory), run-record reads, task-name parses and thread
starts, each divided by the number of cells. Counts, not times: they are
the same on every run and every machine.

It wraps the broker's private helpers (``_atomic_write``, ``_read_json``,
``_TaskName.parse``), so it measures any checkout that has them::

    python benchmarks/broker_ops.py                                # this tree
    PYTHONPATH=/path/to/other/src python benchmarks/broker_ops.py  # another

``docs/performance.md`` holds the numbers of record.
"""

import argparse
import importlib.util
import os
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

from drain_tail import service_spec


def count_worker_ops(spec):
    """``{(operation, directory): count}`` over one worker's drain."""
    from repro.experiments import broker, cache
    from repro.experiments.executors import QueueExecutor, run_queue_worker
    from repro.experiments.sweeps import run_sweep

    counts = Counter()
    coordinator = threading.current_thread()

    def counted(operation, function, where=lambda *args: ""):
        def wrapper(*args):
            if threading.current_thread() is not coordinator:
                counts[operation, where(*args)] += 1
            return function(*args)
        return wrapper

    def directory(path):
        return os.path.basename(os.path.dirname(path))

    broker._atomic_write = counted(
        "write", broker._atomic_write, lambda _, path, *rest: directory(path))
    cache._atomic_write = counted(
        "write", cache._atomic_write, lambda _, path, *rest: directory(path))
    broker._read_json = counted(
        "read", broker._read_json, lambda path, *rest: directory(path))
    parse = broker._TaskName.parse.__func__
    broker._TaskName.parse = classmethod(counted("parse", parse))
    threading.Thread.start = counted("thread start", threading.Thread.start)

    with tempfile.TemporaryDirectory() as work:
        queue_dir = os.path.join(work, "queue")
        worker = threading.Thread(target=run_queue_worker, args=(queue_dir,),
                                  kwargs=dict(poll_interval_s=0.1))
        worker.start()
        run_sweep(spec, executor=QueueExecutor(queue_dir, num_workers=0))
        worker.join()
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if importlib.util.find_spec("repro") is None:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro

    print(f"measuring {Path(repro.__file__).resolve().parent}")
    spec = service_spec(args.seed)
    cells = len(spec.cells())
    counts = count_worker_ops(spec)
    print(f"{cells} cells; per cell, on the worker's side:")
    for (operation, where), count in sorted(counts.items()):
        print(f"  {operation:12s} {where:9s} {count / cells:7.3f}")
    writes = sum(count for (operation, _), count in counts.items()
                 if operation == "write")
    print(f"  {'write':12s} {'(all)':9s} {writes / cells:7.3f}")


if __name__ == "__main__":
    main()

"""Micro-benchmark: file-broker claim throughput, per-cell vs batch leases.

The queue backend's dominant per-claim overhead for sub-second cells is
the ``tasks/`` directory scan behind each claim. Batch leases
(``--lease-batch N``) amortize that scan across N claims, so a drain of
the same task set through ``claim_batch(N)`` must beat N times
``claim_batch(1)``. Both modes are measured in the same run on the same
filesystem, so the recorded speedup is hardware-independent and gated
with zero tolerance in ``baselines.json``.

Claims only -- no cell executes: this isolates the broker data plane
(scan, rename, task parse) from simulation throughput, which
``bench_simulator.py`` owns.
"""

import time

from repro.experiments.executors import WorkQueue
from repro.experiments.sweeps import (
    RunSpec,
    ScenarioSpec,
    SweepSpec,
    WorkloadSpec,
)

NUM_CELLS = 192
LEASE_BATCH = 16


def bench_cells():
    spec = SweepSpec(
        algorithms=("adpsgd",),
        seeds=tuple(range(NUM_CELLS)),
        scenarios=(ScenarioSpec("heterogeneous", 4),),
        workload=WorkloadSpec(model="mobilenet", dataset="mnist",
                              batch_size=32, num_samples=256),
        run=RunSpec(max_sim_time=10.0, eval_interval_s=5.0),
    )
    return spec.cells()


def claims_per_second(queue_dir, cells, lease_batch: int) -> float:
    """Enqueue every cell, then drain the queue claim-by-claim (or
    batch-by-batch); return claims/second for the drain."""
    queue = WorkQueue(str(queue_dir))
    present = queue.present_keys("bench")
    for cell in cells:
        queue.enqueue(cell, present=present, run="bench")
    start = time.perf_counter()
    claimed = 0
    while True:
        claims = queue.claim_batch(lease_batch)
        if not claims:
            break
        claimed += len(claims)
    elapsed = time.perf_counter() - start
    assert claimed == len(cells)
    return claimed / elapsed


def test_batch_leases_beat_per_cell_claims(
    benchmark, tmp_path, capsys, bench_record
):
    cells = bench_cells()

    def compare():
        single = claims_per_second(tmp_path / "q-single", cells, 1)
        batch = claims_per_second(tmp_path / "q-batch", cells, LEASE_BATCH)
        return single, batch

    single, batch = benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = batch / single
    with capsys.disabled():
        print(f"\nbroker drain of {NUM_CELLS} cells: "
              f"per-cell {single:,.0f} claims/s, "
              f"batch[{LEASE_BATCH}] {batch:,.0f} claims/s "
              f"({speedup:.1f}x)")
    bench_record("queue", "queue_claims_per_s_batch1", single, keep="max")
    bench_record(
        "queue", f"queue_claims_per_s_batch{LEASE_BATCH}", batch, keep="max"
    )
    bench_record("queue", "queue_batch_claim_speedup", speedup, keep="max")
    # The hard floor (>= 2x) lives in baselines.json and is enforced by
    # check_bench_json.py; in-test we only require that batching helps.
    assert speedup > 1.0

"""Scalability bench: trainer throughput as the worker axis grows 16 -> 4096.

Runs the scaling cells from ``repro.experiments.figures_scaling`` (adpsgd
over the full range, netmax with neighborhood-local policy solves up to its
O(M^2)-state cap) and prints per-n events/s, build time, wall time and
peak RSS -- the numbers ``docs/scaling.md`` quotes. No ledger workload
varies n, so this sweep is the one place that curve is measured; it is
not gated. The n=4096 no-dense-arrays memory probe is a tier-1 test
(``tests/algorithms/test_base.py::TestScalabilityMemory``).

Run the full range locally with:

    pytest benchmarks/bench_scalability.py --benchmark-only
"""

from repro.experiments.figures_scaling import (
    NETMAX_LOCAL_MAX_WORKERS,
    SCALABILITY_WORKER_COUNTS,
    netmax_local_kwargs,
    run_scalability_cell,
    _sim_time_for,
)

BASE_SIM_TIME = 30.0


def _run_sweep(algorithm: str, counts):
    for num_workers in counts:
        sim_time = _sim_time_for(num_workers, BASE_SIM_TIME)
        kwargs = netmax_local_kwargs(sim_time) if algorithm == "netmax" else {}
        cell = run_scalability_cell(algorithm, num_workers, sim_time, **kwargs)
        assert cell["events"] > 0
        yield num_workers, cell


def test_scalability_adpsgd(benchmark, capsys):
    """AD-PSGD across the full worker range: the sparse graph/link layer
    keeps per-event cost from growing with n the way dense O(n^2) state
    would (it still falls to ~0.6x between n=16 and n=4096)."""

    def sweep():
        results = list(_run_sweep("adpsgd", SCALABILITY_WORKER_COUNTS))
        with capsys.disabled():
            for num_workers, cell in results:
                print(
                    f"\nadpsgd n={num_workers}: {cell['events_per_s']:,.0f} "
                    f"events/s, build {cell['build_s']:.2f}s, "
                    f"peak RSS {cell['peak_rss_mb']:.0f} MB"
                )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(results) == len(SCALABILITY_WORKER_COUNTS)


def test_scalability_netmax_local(benchmark, capsys):
    """NetMax with policy_scope="local": per-tick cost is n ego solves of
    O(deg) size each, so the sweep stays tractable where a full-graph LP
    per tick would not."""
    counts = tuple(
        n for n in SCALABILITY_WORKER_COUNTS if n <= NETMAX_LOCAL_MAX_WORKERS
    )

    def sweep():
        results = list(_run_sweep("netmax", counts))
        with capsys.disabled():
            for num_workers, cell in results:
                print(
                    f"\nnetmax-local n={num_workers}: "
                    f"{cell['events_per_s']:,.0f} events/s, "
                    f"wall {cell['wall_s']:.1f}s, "
                    f"peak RSS {cell['peak_rss_mb']:.0f} MB"
                )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(results) == len(counts)

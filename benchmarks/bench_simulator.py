"""Micro-benchmark: discrete-event simulator and trainer-loop throughput.

Every training experiment rides on the event queue; this measures raw
events/second on a self-rescheduling workload resembling the trainers'
iteration loops, plus end-to-end trainer throughput on the paper's
16-worker heterogeneous scenario with a data-free quadratic workload (so
framework overhead, not model math, dominates -- the quantity the O(1)
hot-path work targets).

Each test also records its throughput through ``bench_record``, so the run
emits ``BENCH_simulator.json`` (see ``conftest.py``) for the CI perf
trajectory, gated against ``baselines.json``.
"""

import time

from repro.algorithms.base import TrainerConfig
from repro.algorithms.registry import create_trainer
from repro.experiments.scenarios import (
    heterogeneous_scenario,
    make_quadratic_workload,
)
from repro.simulation.batched import BatchedSimulator
from repro.simulation.engine import Simulator


def chain_events(num_chains: int, events_per_chain: int) -> tuple[int, float]:
    """Run the self-rescheduling chains; return (executed, events/second)."""
    sim = Simulator()
    executed = [0]

    def tick():
        executed[0] += 1
        if executed[0] < num_chains * events_per_chain:
            sim.schedule_in(1.0, tick)

    for chain in range(num_chains):
        sim.schedule_at(float(chain) / num_chains, tick)
    start = time.perf_counter()
    sim.run(max_events=num_chains * events_per_chain + 1)
    elapsed = time.perf_counter() - start
    return executed[0], executed[0] / elapsed


def _recorded_chains(bench_record, metric, num_chains, events_per_chain):
    """chain_events wrapped to record every benchmark round, so keep="max"
    reports the best observed round rather than an arbitrary one."""

    def run():
        executed, events_per_s = chain_events(num_chains, events_per_chain)
        bench_record("simulator", metric, events_per_s, keep="max")
        return executed

    return run


def test_simulator_throughput_small(benchmark, bench_record):
    executed = benchmark(_recorded_chains(
        bench_record, "sim_chains8_events_per_s", 8, 1000
    ))
    assert executed >= 8000


def test_simulator_throughput_many_chains(benchmark, bench_record):
    executed = benchmark(_recorded_chains(
        bench_record, "sim_chains64_events_per_s", 64, 250
    ))
    assert executed >= 16000


def trainer_events(
    algorithm: str,
    num_workers: int = 16,
    sim_time: float = 500.0,
    dynamic: bool = False,
    **trainer_kwargs,
) -> float:
    """Run one trainer on the 16-worker scenario; return events/second.

    The quadratic (sampler-less) workload keeps per-iteration model math in
    the microsecond range, so this measures the per-event cost of the
    trainer machinery itself: epoch/LR accounting, peer selection, flow
    bookkeeping, and the event queue.
    """
    tasks, _, profile = make_quadratic_workload(num_workers, seed=1)
    scenario = heterogeneous_scenario(num_workers, dynamic=dynamic)
    config = TrainerConfig(
        max_sim_time=sim_time,
        eval_interval_s=50.0,
        seed=1,
        max_epochs=500.0,
        iterations_per_epoch_hint=50,
    )
    trainer = create_trainer(
        algorithm, tasks, scenario.topology, scenario.links, profile, config,
        **trainer_kwargs,
    )
    start = time.perf_counter()
    trainer.run()
    elapsed = time.perf_counter() - start
    return trainer.sim.events_processed / elapsed


def test_trainer_throughput_16_workers_adpsgd(benchmark, capsys, bench_record):
    events_per_s = benchmark.pedantic(
        trainer_events, args=("adpsgd",), rounds=1, iterations=1
    )
    with capsys.disabled():
        print(f"\nadpsgd 16-worker trainer loop: {events_per_s:,.0f} events/s")
    assert events_per_s > 0
    bench_record(
        "simulator", "trainer_adpsgd_events_per_s", events_per_s, keep="max"
    )


def test_trainer_throughput_16_workers_adpsgd_dynamic_links(
    benchmark, capsys, bench_record
):
    """The same loop on the paper's *default* network: the slowed link
    rotates every 300 s (``dynamic=True``), so every transfer asks
    ``DynamicSlowdownLinks`` which link is slow right now. Every other
    entry here freezes the slowdown off, which is how a per-query
    ``np.random.Generator`` (22 us of a 28 us transfer) went unseen; the
    floor in baselines.json sits at the observed value, so the loop
    falling back to that cost (~0.4x) trips the gate."""
    events_per_s = benchmark.pedantic(
        trainer_events, args=("adpsgd",), kwargs={"dynamic": True},
        rounds=1, iterations=1,
    )
    with capsys.disabled():
        print(f"\nadpsgd 16-worker trainer loop, rotating slow link: "
              f"{events_per_s:,.0f} events/s")
    assert events_per_s > 0
    bench_record(
        "simulator", "trainer_adpsgd_dynamic_events_per_s", events_per_s,
        keep="max",
    )


def test_trainer_throughput_16_workers_netmax(benchmark, capsys, bench_record):
    # adaptive=False: pure event loop, no Algorithm 3 LP solves in the way.
    events_per_s = benchmark.pedantic(
        trainer_events, args=("netmax",), kwargs={"adaptive": False},
        rounds=1, iterations=1,
    )
    with capsys.disabled():
        print(f"\nnetmax 16-worker trainer loop: {events_per_s:,.0f} events/s")
    assert events_per_s > 0
    bench_record(
        "simulator", "trainer_netmax_events_per_s", events_per_s, keep="max"
    )


def test_trainer_throughput_16_workers_adpsgd_topk(benchmark, capsys, bench_record):
    """Compressed-transfer throughput: top-k at k=0.05 shrinks each
    transfer 20x, so the same simulated horizon packs in far more
    iterations -- this measures that the extra per-pull work (the
    compression-noise hook's RNG draw and axpy) keeps wall-clock
    events/s in the same band as the uncompressed loop."""
    from repro.network.compression import make_compression_op

    events_per_s = benchmark.pedantic(
        trainer_events, args=("adpsgd",),
        kwargs={"compression": make_compression_op("topk", 0.05)},
        rounds=1, iterations=1,
    )
    with capsys.disabled():
        print(f"\nadpsgd 16-worker topk0.05 trainer loop: "
              f"{events_per_s:,.0f} events/s")
    assert events_per_s > 0
    bench_record(
        "simulator", "trainer_adpsgd_topk_events_per_s", events_per_s,
        keep="max",
    )


def _sweep_cell_trainer(seed: int, num_workers: int, sim_time: float):
    """One noise-free quadratic adpsgd cell of a seed sweep (the batched
    engine's pure-fast-path regime, so the measured gap is SoA vectorization
    versus the per-event loop, not model math)."""
    scenario = heterogeneous_scenario(num_workers, dynamic=False, seed=1)
    tasks, _, profile = make_quadratic_workload(
        num_workers, noise_std=0.0, seed=seed
    )
    config = TrainerConfig(
        max_sim_time=sim_time,
        eval_interval_s=50.0,
        seed=seed,
        max_epochs=500.0,
        iterations_per_epoch_hint=50,
    )
    return create_trainer(
        "adpsgd", tasks, scenario.topology, scenario.links, profile, config
    )


def batched_sweep_events(
    num_cells: int = 64,
    num_workers: int = 16,
    sim_time: float = 60.0,
    inline_cells: int = 3,
) -> tuple[float, float]:
    """(aggregate batched events/s, speedup vs the inline per-event path).

    ``num_cells`` seed-varied cells advance through one
    :class:`BatchedSimulator`; the inline baseline runs the first
    ``inline_cells`` of the same cells through ``trainer.run()`` (enough to
    average scheduling noise without dominating the benchmark's runtime).
    Both paths produce bit-identical results -- that claim lives in the
    bit-identity suite; here only the throughput ratio matters.
    """
    start = time.perf_counter()
    inline_events = 0
    for seed in range(inline_cells):
        trainer = _sweep_cell_trainer(seed, num_workers, sim_time)
        trainer.run()
        inline_events += trainer.sim.events_processed
    inline_rate = inline_events / (time.perf_counter() - start)

    engine = BatchedSimulator([
        _sweep_cell_trainer(seed, num_workers, sim_time)
        for seed in range(num_cells)
    ])
    start = time.perf_counter()
    engine.run()
    batched_rate = engine.events_processed / (time.perf_counter() - start)
    return batched_rate, batched_rate / inline_rate


def test_batched_sweep_throughput_64_cells(benchmark, capsys, bench_record):
    """The tentpole acceptance metric: aggregate trainer events/s across a
    64-cell batch must beat the per-event path by >= 5x (gated through
    baselines.json, tolerance 0 -- the ratio is hardware-insensitive)."""
    batched_rate, speedup = benchmark.pedantic(
        batched_sweep_events, rounds=1, iterations=1
    )
    with capsys.disabled():
        print(f"\nbatched 64-cell sweep: {batched_rate:,.0f} events/s "
              f"aggregate ({speedup:.2f}x vs inline)")
    assert batched_rate > 0
    bench_record(
        "simulator", "batched_adpsgd_events_per_s", batched_rate, keep="max"
    )
    bench_record(
        "simulator", "batched_speedup_vs_inline", speedup, keep="max"
    )

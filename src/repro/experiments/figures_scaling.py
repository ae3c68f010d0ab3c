"""Scalability of the simulator along the worker axis (ROADMAP item 2).

The paper's experiments stop at tens of workers; the sparse topology layer
(CSR neighbor lists), implicit link models (:class:`ClusterLinks`), and
neighborhood-local policy solves (``policy_scope="local"``) are what make
``num_workers`` in the thousands affordable. This module defines the cells
that measure it: one cell = one trainer on an expander graph over a
placement-implied cluster, timed end to end, reporting events/second and
the process's peak RSS. ``benchmarks/bench_scalability.py`` runs them
along :data:`SCALABILITY_WORKER_COUNTS` and prints them (locally, ungated),
and ``tests/algorithms/test_base.py`` probes the n=4096 cell's memory; a
wall-clock table is a measurement, not a figure, so it has no
``repro figure`` id.

The workload is the sampler-less quadratic consensus problem, so the cell
measures framework cost (event queue, peer selection, transfer bookkeeping,
policy solves), not model math. Throughput staying flat as ``n`` grows
16 -> 4096 is the acceptance signal: any O(N) work smuggled into a per-event
path bends these curves down immediately.
"""

from __future__ import annotations

import resource
import time

from repro.algorithms.base import TrainerConfig
from repro.algorithms.registry import create_trainer
from repro.experiments.scenarios import make_quadratic_workload
from repro.graph.topology import Topology, make_topology
from repro.network.cluster import ClusterSpec
from repro.network.links import ClusterLinks, LinkSpeedModel

__all__ = [
    "SCALABILITY_WORKER_COUNTS",
    "NETMAX_LOCAL_MAX_WORKERS",
    "scalability_scenario",
    "run_scalability_cell",
    "netmax_local_kwargs",
]

# The sweep's worker axis: 16 (the paper's largest run) up to 4096.
SCALABILITY_WORKER_COUNTS = (16, 64, 256, 1024, 4096)

# NetMax keeps O(M) consensus state per worker (time vectors, policy rows),
# so the trainer itself is O(M^2) memory regardless of graph sparsity;
# the local-solve mode caps here until that state is sparsified (see
# docs/scaling.md follow-ups). AD-PSGD runs the full range.
NETMAX_LOCAL_MAX_WORKERS = 256


def scalability_scenario(
    num_workers: int, seed: int = 1
) -> tuple[Topology, LinkSpeedModel]:
    """The scaling testbed: a degree-4 expander over a 4-per-server cluster.

    Both pieces are O(N) by construction -- CSR neighbor lists for the
    graph, a placement vector for the links -- so the scenario itself never
    materializes an N x N array.
    """
    topology = make_topology("expander", num_workers, seed=seed)
    links = ClusterLinks(ClusterSpec.paper_heterogeneous(num_workers))
    return topology, links


def _sim_time_for(num_workers: int, base_sim_time: float) -> float:
    """Shrink the horizon as n grows so total event volume stays bounded
    (events scale ~linearly with n at fixed horizon)."""
    if num_workers <= 256:
        return base_sim_time
    return base_sim_time * 256.0 / num_workers


def run_scalability_cell(
    algorithm: str,
    num_workers: int,
    max_sim_time: float,
    seed: int = 1,
    **trainer_kwargs,
) -> dict:
    """Run one (algorithm, n) cell; return its throughput/memory readings.

    Returns keys: ``events``, ``wall_s``, ``events_per_s``, ``build_s``,
    ``peak_rss_mb`` (the process high-watermark after the run -- monotone
    across cells in one process, so read it as "the sweep so far fits in
    this much", not a per-cell delta).
    """
    topology, links = scalability_scenario(num_workers, seed=seed)
    tasks, _, profile = make_quadratic_workload(num_workers, seed=seed)
    config = TrainerConfig(
        max_sim_time=max_sim_time,
        eval_interval_s=max_sim_time,
        seed=seed,
        max_epochs=500.0,
        iterations_per_epoch_hint=50,
    )
    start = time.perf_counter()
    trainer = create_trainer(
        algorithm, tasks, topology, links, profile, config, **trainer_kwargs
    )
    build_s = time.perf_counter() - start
    start = time.perf_counter()
    trainer.run()
    wall_s = time.perf_counter() - start
    events = int(trainer.sim.events_processed)
    return {
        "events": events,
        "wall_s": wall_s,
        "build_s": build_s,
        "events_per_s": events / wall_s if wall_s > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def netmax_local_kwargs(max_sim_time: float) -> dict:
    """Bench-scale NetMax settings: 1-hop ego solves on a coarse 2x2 grid,
    one monitor tick inside the horizon. The cell then measures the
    *scaling shape* of the local mode (n ego solves of O(deg) size each),
    not LP depth -- production depth belongs to the policy bench."""
    return {
        "policy_scope": "local",
        "policy_local_hops": 1,
        "policy_outer_rounds": 2,
        "policy_inner_rounds": 2,
        "monitor_period_s": max(1.0, max_sim_time * 2.0 / 3.0),
        "monitor_min_coverage": 0.5,
    }

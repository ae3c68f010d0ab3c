#!/usr/bin/env python
"""Watch the Network Monitor adapt when link speeds change mid-training.

Recreates the paper's Fig. 2 scenario with a scripted trace: the link
between workers 0 and 1 is fast for the first half of the run, then turns
50x slow while a previously slow link recovers. A fixed-topology approach
(SAPS-PSGD) keeps gossiping over the now-slow link; NetMax's monitor
re-solves the policy LP and shifts probability away from it.

Run:  python examples/dynamic_network.py
"""

import numpy as np

from repro import Scenario, Topology, TrainerConfig, make_workload, run_comparison
from repro.experiments import render_table
from repro.network import TraceLinks
from repro.network.cluster import ClusterSpec


def build_trace_scenario(num_workers: int = 8, flip_time: float = 150.0) -> Scenario:
    """Fast (0,1) link that turns 50x slow at ``flip_time`` while (0,2) recovers."""
    cluster = ClusterSpec.paper_heterogeneous(num_workers)
    base = cluster.bandwidth_matrix()
    before = base.copy()
    before[0, 2] = before[2, 0] = base[0, 2] / 50.0  # (0,2) starts slow
    after = base.copy()
    after[0, 1] = after[1, 0] = base[0, 1] / 50.0  # (0,1) becomes slow instead
    links = TraceLinks(
        [(0.0, before), (flip_time, after)], cluster.latency_matrix()
    )
    return Scenario(Topology.fully_connected(num_workers), links)


def main() -> None:
    scenario = build_trace_scenario()
    workload = make_workload(
        model="resnet18",
        dataset="cifar10",
        num_workers=8,
        batch_size=128,
        num_samples=4096,
        seed=11,
    )
    config = TrainerConfig(max_sim_time=300.0, eval_interval_s=15.0, seed=11)
    results = run_comparison(
        ["saps", "adpsgd", "netmax"],
        scenario,
        workload,
        config,
        trainer_kwargs={"netmax": {"monitor_period_s": 25.0}},
    )

    rows = []
    for name, result in results.items():
        summary = result.costs.summary()
        rows.append([name, summary["epoch_time"], result.history.final_loss()])
    print(render_table(
        ["algorithm", "epoch_time_s", "final_loss"],
        rows,
        title="Dynamic network (fast link flips slow at t=150s, cf. paper Fig. 2)",
    ))

    netmax = results["netmax"]
    if "final_policy" in netmax.extras:
        policy = netmax.extras["final_policy"]
        print("\nNetMax final policy row of worker 0 "
              "(probability on peer 1 should be near its floor after the flip):")
        print(np.array_str(policy[0], precision=3, suppress_small=True))
    saps = results["saps"]
    print("\nSAPS fixed subgraph (chosen at t=0, cannot adapt):",
          saps.extras["fixed_subgraph_edges"])


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Quickstart: train one model with NetMax on a simulated heterogeneous cluster.

Builds the paper's default setting -- 8 workers over 3 servers, fully
connected, one randomly slowed link rotating over time -- trains a ResNet18
stand-in on synthetic CIFAR10 with NetMax, and prints the loss trajectory,
the epoch-time decomposition, and the final communication policy the
Network Monitor converged to.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import TrainerConfig, heterogeneous_scenario, make_workload, run_trainer


def main() -> None:
    scenario = heterogeneous_scenario(num_workers=8, seed=42)
    workload = make_workload(
        model="resnet18",
        dataset="cifar10",
        num_workers=8,
        batch_size=128,
        num_samples=4096,
        seed=42,
    )
    config = TrainerConfig(max_sim_time=240.0, eval_interval_s=20.0, seed=42)

    print(f"workload: {workload.model_name} on {workload.dataset_name} "
          f"({workload.num_workers} workers)")
    result = run_trainer("netmax", scenario, workload, config, monitor_period_s=30.0)

    print("\nloss trajectory (virtual time):")
    arrays = result.history.as_arrays()
    for t, epoch, loss, acc in zip(
        arrays["time"], arrays["epoch"], arrays["train_loss"], arrays["test_accuracy"]
    ):
        print(f"  t={t:6.1f}s  epoch={epoch:6.1f}  loss={loss:.3f}  test_acc={acc:.3f}")

    summary = result.costs.summary()
    print(f"\nepoch time: {summary['epoch_time']:.2f}s "
          f"(computation {summary['computation_cost']:.2f}s, "
          f"communication {summary['communication_cost']:.2f}s)")
    print(f"consensus distance across replicas: {result.consensus_distance():.5f}")

    if "final_policy" in result.extras:
        print(f"\nNetwork Monitor: {result.extras['monitor_stats']}")
        print(f"final rho={result.extras['final_rho']:.3f}  "
              f"lambda2={result.extras['final_lambda2']:.4f}")
        print("final neighbor-selection policy (rows = workers):")
        print(np.array_str(result.extras["final_policy"], precision=2, suppress_small=True))


if __name__ == "__main__":
    main()

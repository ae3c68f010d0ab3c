#!/usr/bin/env python3
"""Where one gossip iteration's wall-clock goes, as named lines.

Times the pieces of one AD-PSGD iteration in isolation (best of several
``timeit`` repeats, microseconds per call) on the two steps the ledger's
workloads are made of, then runs the real trainer and reports the whole
iteration next to the sum of its pieces:

- ``mlp``       -- the ``sweep-reference`` cell: mobilenet/mnist, batch 32,
  8 workers on the *dynamic* heterogeneous scenario (``repro sweep``'s
  default);
- ``quadratic`` -- the ``event-loop`` cell: the sampler-less 8-dimensional
  quadratic, 16 workers, static heterogeneous links.

Only public names are used, so the same file measures any checkout::

    python benchmarks/step_budget.py                                # this tree
    PYTHONPATH=/path/to/other/src python benchmarks/step_budget.py  # another

``docs/performance.md`` holds the numbers of record and how to read them.
"""

import importlib.util
import sys
import time
import timeit
from pathlib import Path


def best_us(func, number=2000, repeat=9):
    """Best-of-``repeat`` microseconds per call (the floor, not the mean:
    the box's noise only ever adds)."""
    return 1e6 * min(timeit.repeat(func, number=number, repeat=repeat)) / number


def engine_us_per_event():
    """The bare event queue: ``bench_simulator.py``'s self-rescheduling chains."""
    from bench_simulator import chain_events  # sibling file; imports repro

    _, events_per_s = chain_events(num_chains=8, events_per_chain=8000)
    return 1e6 / events_per_s


def network_lines(links, profile, num_workers):
    """Link queries and transfer bookkeeping of one pull on ``links``."""
    from repro.network.costmodel import CommunicationModel, ComputeModel

    comm = CommunicationModel(links)
    compute = ComputeModel(profile, num_workers)
    nbytes = comm.payload_bytes(profile)
    queries = best_us(
        lambda: (links.bandwidth(0, 5, 42.0), links.latency(0, 5, 42.0))
    )

    def transfer():
        comm.begin_transfer(0, 5, nbytes, 42.0)
        comm.end_transfer(0, 5)

    return {
        "link queries (bandwidth + latency, once each)": queries,
        "begin + end transfer (incl. its link queries)": best_us(transfer),
        "compute_time": best_us(lambda: compute.compute_time(0, 32)),
    }


def update_lines(model, grad):
    """The flat-vector half of ``_apply_update``: read, mix, step, write."""
    from repro.ml.optim import SGDConfig, SGDState

    params = model.get_params()
    peer = params + 1.0
    optimizer = SGDState(SGDConfig(), model.dim)
    return {
        "get_params": best_us(model.get_params),
        "set_params": best_us(lambda: model.set_params(params)),
        "mix (1-w) x + w x_peer": best_us(lambda: 0.5 * params + 0.5 * peer),
        "SGDState.step": best_us(lambda: optimizer.step(params, grad, 0.05)),
    }


def whole_iteration_us(trainer):
    start = time.perf_counter()
    trainer.run()
    elapsed = time.perf_counter() - start
    iterations = sum(task.iterations for task in trainer.tasks)
    events = trainer.sim.events_processed
    return 1e6 * elapsed / iterations, events / iterations


def mlp_budget():
    from repro.algorithms.base import TrainerConfig
    from repro.experiments import harness, scenarios
    from repro.ml.metrics import softmax_cross_entropy

    workers = 8
    scenario = scenarios.heterogeneous_scenario(workers, dynamic=True)
    workload = scenarios.make_workload(
        model="mobilenet", dataset="mnist", num_workers=workers,
        batch_size=32, num_samples=512, seed=1,
    )
    task = workload.make_tasks()[0]
    model, sampler = task.model, task.sampler
    features, labels = sampler.next_batch()
    logits = model.predict_logits(features)
    _, grad = model.loss_and_grad(features, labels)

    forward = best_us(lambda: model.predict_logits(features))
    cross_entropy = best_us(lambda: softmax_cross_entropy(logits, labels))
    whole = best_us(lambda: model.loss_and_grad(features, labels))
    lines = {
        "next_batch": best_us(sampler.next_batch),
        "forward": forward,
        "softmax cross-entropy": cross_entropy,
        "backward (loss_and_grad - forward - CE)": whole - forward - cross_entropy,
        "loss_and_grad (the three above)": whole,
    }
    lines.update(update_lines(model, grad))
    lines.update(network_lines(scenario.links, workload.profile, workers))

    config = TrainerConfig(max_sim_time=40.0, eval_interval_s=1e9, seed=1)
    trainer = harness.build_trainer("adpsgd", scenario, workload, config)
    return f"mlp step (mobilenet/mnist, batch 32, dim {model.dim})", lines, trainer


def quadratic_budget():
    from repro.algorithms.base import TrainerConfig
    from repro.algorithms.registry import create_trainer
    from repro.experiments import scenarios

    workers = 16
    scenario = scenarios.heterogeneous_scenario(workers, dynamic=False)
    tasks, _, profile = scenarios.make_quadratic_workload(workers, seed=1)
    model = tasks[0].model
    _, grad = model.loss_and_grad()
    lines = {"loss_and_grad": best_us(model.loss_and_grad)}
    lines.update(update_lines(model, grad))
    lines.update(network_lines(scenario.links, profile, workers))

    tasks, _, profile = scenarios.make_quadratic_workload(workers, seed=1)
    config = TrainerConfig(
        max_sim_time=300.0, eval_interval_s=1e9, seed=1,
        iterations_per_epoch_hint=50,
    )
    trainer = create_trainer(
        "adpsgd", tasks, scenario.topology, scenario.links, profile, config
    )
    return f"quadratic step (dim {model.dim}, static links)", lines, trainer


def report(title, lines, trainer, engine_us):
    per_iteration, events = whole_iteration_us(trainer)
    print(f"\n{title}")
    for name, value in lines.items():
        print(f"  {name:<48s} {value:8.2f} us")
    print(f"  {'engine (schedule + pop), per event':<48s} {engine_us:8.2f} us"
          f"   x {events:.2f} events/iteration")
    print(f"  {'WHOLE adpsgd iteration (trainer.run / iterations)':<48s} "
          f"{per_iteration:8.2f} us")


def main():
    if importlib.util.find_spec("repro") is None:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro

    print(f"measuring {Path(repro.__file__).resolve().parent}")
    engine_us = engine_us_per_event()
    report(*mlp_budget(), engine_us)
    report(*quadratic_budget(), engine_us)
    return 0


if __name__ == "__main__":
    sys.exit(main())

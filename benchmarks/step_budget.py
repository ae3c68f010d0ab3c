#!/usr/bin/env python3
"""Where one gossip iteration's wall-clock goes, as named lines.

Five steps, the ones the ledger's workloads are made of:

- ``mlp``       -- the ``sweep-reference`` cell: AD-PSGD, mobilenet/mnist,
  batch 32, 8 workers on the *dynamic* heterogeneous scenario
  (``repro sweep``'s default);
- ``quadratic`` -- the ``event-loop`` cells: the sampler-less 8-dimensional
  quadratic under AD-PSGD and under NetMax (``adaptive=False``: the gossip
  step without monitor ticks), at n = 16 on the static heterogeneous
  cluster and at n = 256 on its degree-4 expander.

Each named line is one call, timed in isolation (best of several
``timeit`` repeats, microseconds per call), times how often the real
trainer makes that call per iteration. The counts come from one
instrumented run of the trainer; a call made inside another named call is
not counted again, so the lines are disjoint and add up. A second,
uninstrumented run gives the whole iteration, and what the named lines do
not explain is the gossip loop's own time: the Python that dispatches an
iteration (``_start_iteration``, ``_complete_iteration``, the progress
bookkeeping, selection and transfer guards). Counting instead of assuming means a
line that a change removes from the step reads ``0.00`` calls.

Only public names are counted and timed, so the same file measures any
checkout::

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


def engine_us_per_event(depth, events=64_000, repeat=3):
    """The bare event queue at ``depth`` pending events: self-rescheduling
    ``schedule_in`` chains, one pop and one push per event."""
    from repro.simulation.engine import Simulator

    best = float("inf")
    for _ in range(repeat):
        sim = Simulator()
        left = [events]

        def tick():
            left[0] -= 1
            if left[0] > 0:
                sim.schedule_in(1.0, tick)

        for chain in range(depth):
            sim.schedule_at(chain / depth, tick)
        start = time.perf_counter()
        sim.run(max_events=events)
        best = min(best, (time.perf_counter() - start) / events)
    return 1e6 * best


def calls_per_iteration(trainer, targets):
    """Run ``trainer`` with every ``(owner, attr)`` of ``targets`` counting
    its outermost calls; return ``(calls per iteration, events per
    iteration)``. The owners are restored afterwards."""
    counts = dict.fromkeys(targets, 0)
    depth = [0]
    saved = {target: vars(target[0])[target[1]] for target in targets}

    def counting(target, func):
        def wrapper(*args, **kwargs):
            if not depth[0]:
                counts[target] += 1
            depth[0] += 1
            try:
                return func(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    for target, func in saved.items():
        setattr(*target, counting(target, func))
    try:
        trainer.run()
    finally:
        for target, func in saved.items():
            setattr(*target, func)
    iterations = trainer.total_iterations()
    per_iteration = {target: n / iterations for target, n in counts.items()}
    return per_iteration, trainer.sim.events_processed / iterations


def whole_us_per_iteration(build, repeat=3):
    """Best-of-``repeat`` microseconds per iteration of ``build()``'s run."""
    best = float("inf")
    for _ in range(repeat):
        trainer = build()
        start = time.perf_counter()
        trainer.run()
        best = min(best, (time.perf_counter() - start) / trainer.total_iterations())
    return 1e6 * best


def network_lines(links, profile, num_workers, peer):
    """``(name, us per call, counted target)`` of one pull's network calls."""
    from repro.network.costmodel import CommunicationModel, ComputeModel

    comm = CommunicationModel(links)
    compute = ComputeModel(profile, num_workers)
    nbytes = comm.payload_bytes(profile)

    def transfer():
        comm.begin_transfer(0, peer, nbytes, 42.0)
        comm.end_transfer(0, peer)

    return [
        ("begin + end transfer", best_us(transfer),
         (CommunicationModel, "begin_transfer")),
        ("compute_time", best_us(lambda: compute.compute_time(0, 32)),
         (ComputeModel, "compute_time")),
    ]


def adpsgd_lines(model, grad):
    """AD-PSGD's ``_apply_update``: read, mix, step, write."""
    from repro.ml.models import Model
    from repro.ml.optim import SGDConfig, SGDState
    from repro.network.costmodel import CommunicationModel

    params = model.get_params()
    peer = params + 1.0
    optimizer = SGDState(SGDConfig(), model.dim)
    return [
        ("get_params", best_us(model.get_params), (Model, "get_params")),
        ("set_params", best_us(lambda: model.set_params(params)),
         (Model, "set_params")),
        # One mix per pull, and one pull per transfer.
        ("mix (1-w) x + w x_peer", best_us(lambda: 0.5 * params + 0.5 * peer),
         (CommunicationModel, "begin_transfer")),
        ("SGDState.step", best_us(lambda: optimizer.step(params, grad, 0.05)),
         (SGDState, "step")),
    ]


def netmax_lines(trainer, grad):
    """NetMax's two updates and its selection, on a worker of ``trainer``."""
    from repro.core.consensus import ConsensusWorker

    state = trainer.workers[0]
    peer = int(state.neighbors[0])
    peer_params = trainer.tasks[peer].model.get_params()
    p_im = float(state.effective_probabilities[peer])
    return [
        ("choose_peer", best_us(state.choose_peer),
         (ConsensusWorker, "choose_peer")),
        ("local_gradient_step (step + write)",
         best_us(lambda: state.local_gradient_step(grad, 0.05)),
         (ConsensusWorker, "local_gradient_step")),
        ("pull_update (mix + write)",
         best_us(lambda: state.pull_update(peer, peer_params, 0.05, p_im=p_im)),
         (ConsensusWorker, "pull_update")),
        ("record_time (EMA)", best_us(lambda: state.record_time(peer, 0.1)),
         (ConsensusWorker, "record_time")),
    ]


def mlp_step():
    from repro.algorithms.base import TrainerConfig
    from repro.experiments import harness, scenarios
    from repro.ml.data import BatchSampler
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
    lines = [
        ("next_batch", best_us(sampler.next_batch), (BatchSampler, "next_batch")),
        ("loss_and_grad", whole, (type(model), "loss_and_grad")),
    ]
    detail = [
        ("forward", forward),
        ("softmax cross-entropy", cross_entropy),
        ("backward (loss_and_grad - forward - CE)", whole - forward - cross_entropy),
    ]
    lines += adpsgd_lines(model, grad)
    lines += network_lines(scenario.links, workload.profile, workers, peer=5)

    def build():
        config = TrainerConfig(max_sim_time=150.0, eval_interval_s=1e9, seed=1)
        return harness.build_trainer("adpsgd", scenario, workload, config)

    title = f"mlp step, adpsgd, n = {workers} (mobilenet/mnist, batch 32, dim {model.dim})"
    return title, "adpsgd", lines, detail, build, 2 * workers


def quadratic_step(algorithm, workers, sim_time):
    from repro.algorithms.base import TrainerConfig
    from repro.algorithms.registry import create_trainer
    from repro.experiments import scenarios
    from repro.graph.topology import make_topology
    from repro.network.cluster import ClusterSpec
    from repro.network.links import ClusterLinks

    if workers <= 16:
        scenario = scenarios.heterogeneous_scenario(workers, dynamic=False)
        topology, links, graph = scenario.topology, scenario.links, "static links"
    else:
        topology = make_topology("expander", workers, seed=1)
        links = ClusterLinks(ClusterSpec.paper_heterogeneous(workers))
        graph = "degree-4 expander"
    kwargs = {"adaptive": False} if algorithm == "netmax" else {}

    def build():
        tasks, _, profile = scenarios.make_quadratic_workload(workers, seed=1)
        config = TrainerConfig(
            max_sim_time=sim_time, eval_interval_s=1e9, seed=1,
            iterations_per_epoch_hint=50,
        )
        return create_trainer(
            algorithm, tasks, topology, links, profile, config, **kwargs
        )

    probe = build()
    model = probe.tasks[0].model
    _, grad = model.loss_and_grad()
    lines = [("loss_and_grad", best_us(model.loss_and_grad),
              (type(model), "loss_and_grad"))]
    if algorithm == "netmax":
        lines += netmax_lines(probe, grad)
    else:
        lines += adpsgd_lines(model, grad)
    peer = int(topology.neighbors(0)[0])
    lines += network_lines(links, probe.profile, workers, peer)
    title = f"quadratic step, {algorithm}, n = {workers} (dim {model.dim}, {graph})"
    return title, algorithm, lines, [], build, 2 * workers


def report(title, algorithm, lines, detail, build, depth):
    calls, events = calls_per_iteration(build(), [target for *_, target in lines])
    engine = engine_us_per_event(depth)
    whole = whole_us_per_iteration(build)
    print(f"\n{title}")
    print(f"  {'line':<44s} {'us/call':>8s} {'calls/it':>9s} {'us/it':>8s}")
    named = 0.0
    for name, us, target in lines:
        named += us * calls[target]
        print(f"  {name:<44s} {us:8.2f} {calls[target]:9.2f} {us * calls[target]:8.2f}")
    for name, us in detail:
        print(f"    {name:<42s} {us:8.2f}")
    named += engine * events
    print(f"  {'engine (schedule + pop), per event':<44s} {engine:8.2f} "
          f"{events:9.2f} {engine * events:8.2f}")
    print(f"  {'named lines, summed':<63s} {named:8.2f}")
    print(f"  {'gossip loop own (whole - named lines)':<63s} {whole - named:8.2f}")
    print(f"  {f'WHOLE {algorithm} iteration (trainer.run / iterations)':<63s} "
          f"{whole:8.2f}")


def main():
    if importlib.util.find_spec("repro") is None:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro

    print(f"measuring {Path(repro.__file__).resolve().parent}")
    report(*mlp_step())
    for algorithm, workers, sim_time in (
        ("adpsgd", 16, 600.0), ("netmax", 16, 600.0),
        ("adpsgd", 256, 60.0), ("netmax", 256, 60.0),
    ):
        report(*quadratic_step(algorithm, workers, sim_time))
    return 0


if __name__ == "__main__":
    sys.exit(main())

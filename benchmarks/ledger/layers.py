"""Which public callables the traced pass wraps, and the metrics built on them.

A layer is a module of ``repro``; every wrapped callable gets a span name
``<layer>.<what>``. ``install`` is the whole list of wrapped callables;
``per_layer_metrics`` turns one traced pass (plus the counts the workload
read from its results, and the untraced ``wall_s``) into the per-layer
metrics ``BENCHMARK.json`` declares. Every ``*_s`` metric is *self* time:
the time inside the named calls minus the wrapped calls beneath them, so
the layers add up to the traced wall instead of overlapping.
"""

import time

# (name, unit, better); the order is the order they are printed in.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("warm_wall_s", "s", "lower"),
)

PER_LAYER = (
    ("simulation.events", "count", "lower"),
    ("simulation.events_per_s", "1/s", "higher"),
    ("simulation.raw_engine_events_per_s", "1/s", "higher"),
    ("simulation.engine_est_s", "s", "lower"),
    ("simulation.batched_run_self_s", "s", "lower"),
    ("simulation.batched_events_per_s", "1/s", "higher"),
    ("algorithms.run_self_s", "s", "lower"),
    ("algorithms.us_per_event", "us", "lower"),
    ("algorithms.build_s", "s", "lower"),
    ("algorithms.iterations", "count", "higher"),
    ("algorithms.netmax_sim_epoch_time_s", "s", "lower"),
    ("algorithms.adpsgd_sim_epoch_time_s", "s", "lower"),
    ("algorithms.netmax_sim_comm_cost_s", "s", "lower"),
    ("algorithms.netmax_sim_epoch_speedup_vs_adpsgd", "x", "higher"),
    ("core.policy_solve_s", "s", "lower"),
    ("core.policy_solves", "count", "lower"),
    ("core.lp_calls", "count", "lower"),
    ("core.monitor_tick_self_s", "s", "lower"),
    ("core.policy_cache_hits", "count", "higher"),
    ("core.policy_cache_cold_solves", "count", "lower"),
    ("core.policy_cache_hit_ratio", "fraction", "higher"),
    ("core.consensus_s", "s", "lower"),
    ("network.link_query_s", "s", "lower"),
    ("network.link_queries", "count", "lower"),
    ("network.transfer_self_s", "s", "lower"),
    ("network.transfers", "count", "lower"),
    ("network.compute_time_s", "s", "lower"),
    ("network.bytes_moved", "B", "lower"),
    ("network.bytes_per_iteration", "B", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.dynamic_adjacency_s", "s", "lower"),
    ("ml.loss_and_grad_s", "s", "lower"),
    ("ml.grad_calls", "count", "lower"),
    ("ml.eval_s", "s", "lower"),
    ("ml.optimizer_step_s", "s", "lower"),
    ("scenarios.build_s", "s", "lower"),
    ("scenarios.workload_build_s", "s", "lower"),
    ("sweeps.cells", "count", "higher"),
    ("sweeps.spec_build_s", "s", "lower"),
    ("sweeps.run_sweep_self_s", "s", "lower"),
    ("sweeps.aggregate_s", "s", "lower"),
    ("executors.cache_store_s", "s", "lower"),
    ("executors.cache_stores", "count", "lower"),
    ("executors.cache_load_s", "s", "lower"),
    ("executors.cache_loads", "count", "lower"),
    ("executors.cache_bytes_per_cell", "B", "lower"),
    ("executors.enqueue_s", "s", "lower"),
    ("executors.claim_s", "s", "lower"),
    ("executors.claims", "count", "lower"),
    ("executors.complete_s", "s", "lower"),
    ("executors.run_self_s", "s", "lower"),
    ("executors.wait_s", "s", "lower"),
    ("executors.reclaims", "count", "lower"),
    ("executors.retries", "count", "lower"),
    ("executors.first_result_s", "s", "lower"),
    ("executors.overhead_s", "s", "lower"),
    ("executors.worker_busy_share", "fraction", "higher"),
    ("cli.import_s", "s", "lower"),
    ("ledger.trace_overhead_ratio", "x", "lower"),
    ("ledger.spans", "count", "lower"),
    ("ledger.unattributed_share", "fraction", "lower"),
)

# Counts that a deterministic program repeats exactly: compare.py fails on
# any difference instead of applying a bound.
EXACT_COUNTS = (
    "simulation.events",
    "algorithms.iterations",
    "network.bytes_moved",
    "sweeps.cells",
)

# The root spans run.py opens around the three phases of a pass; their self
# time is what no wrapped callable accounts for.
ROOT_SPANS = ("ledger.setup", "ledger.timed", "ledger.warm")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer):
    """Wrap the public callables of every layer. Imports happen here so
    that importing this module (for the metric names) needs no ``repro``."""
    from repro.algorithms import registry
    from repro.algorithms.base import DecentralizedTrainer, WorkerTask
    from repro.core import policy
    from repro.core.consensus import ConsensusWorker
    from repro.core.monitor import NetworkMonitor
    from repro.experiments import executors, harness, scenarios, sweeps
    from repro.graph import topology
    from repro.ml.optim import SGDState
    from repro.network.costmodel import CommunicationModel, ComputeModel
    from repro.network.links import LinkSpeedModel
    from repro.simulation.batched import BatchedSimulator

    def span(owner, attr, name, **hooks):
        tracer.patch_attr(owner, attr, lambda f: tracer.wrap_span(name, f, **hooks))

    def aggregate(owner, attr, name, **hooks):
        tracer.patch_attr(
            owner, attr, lambda f: tracer.wrap_aggregate(name, f, **hooks)
        )

    def function(func, name):
        tracer.patch_function(func, lambda f: tracer.wrap_span(name, f))

    def events_of(args, result):
        return args[0].sim.events_processed

    def cell_label(cell, *args):
        return cell.label()

    span(DecentralizedTrainer, "run", "algorithms.run", value_from=events_of)
    function(registry.create_trainer, "algorithms.build")
    function(harness.build_trainer, "algorithms.build")

    span(BatchedSimulator, "__init__", "simulation.batched_init")
    span(BatchedSimulator, "run", "simulation.batched_run",
         value_from=lambda args, result: args[0].events_processed)

    span(policy.PolicyCache, "generate", "core.policy_cache")
    function(policy.generate_policy, "core.generate_policy")
    tracer.patch_function(
        policy.solve_policy_lp, lambda f: tracer.wrap_aggregate("core.lp", f)
    )
    span(NetworkMonitor, "tick", "core.monitor_tick")
    aggregate(ConsensusWorker, "local_gradient_step", "core.consensus")
    aggregate(ConsensusWorker, "pull_update", "core.consensus")

    for cls in (LinkSpeedModel, *_subclasses(LinkSpeedModel)):
        for attr in ("bandwidth", "latency"):
            if attr in vars(cls):
                aggregate(cls, attr, "network.link_query")
    aggregate(CommunicationModel, "begin_transfer", "network.transfer_begin",
              value_from=lambda args: args[3])  # (self, receiver, sender, nbytes, time)
    aggregate(CommunicationModel, "end_transfer", "network.transfer_end")
    aggregate(ComputeModel, "compute_time", "network.compute_time")

    function(topology.make_topology, "graph.build")
    aggregate(topology.DynamicTopology, "adjacency_at", "graph.dynamic_adjacency")

    aggregate(WorkerTask, "sample_loss_and_grad", "ml.loss_and_grad")
    aggregate(DecentralizedTrainer, "evaluate", "ml.eval")
    aggregate(SGDState, "step", "ml.optimizer_step")

    span(sweeps.ScenarioSpec, "build", "scenarios.build")
    function(scenarios.build_scenario, "scenarios.build")
    function(scenarios.heterogeneous_scenario, "scenarios.build")
    span(sweeps.WorkloadSpec, "build", "scenarios.workload_build")
    function(scenarios.make_workload, "scenarios.workload_build")
    function(scenarios.make_quadratic_workload, "scenarios.workload_build")

    function(sweeps.run_sweep, "sweeps.run_sweep")
    function(sweeps.aggregate_sweep, "sweeps.aggregate")
    span(sweeps.SweepCell, "execute", "sweeps.cell", op_from=cell_label)
    span(sweeps.SweepCell, "build_trainer", "sweeps.cell_build", op_from=cell_label)

    aggregate(executors.ResultCache, "store", "executors.cache_store")
    aggregate(executors.ResultCache, "load", "executors.cache_load")
    aggregate(executors.ResultCache, "peek", "executors.cache_load")
    aggregate(executors.WorkQueue, "enqueue", "executors.enqueue")
    aggregate(executors.WorkQueue, "claim_batch", "executors.claim")
    aggregate(executors.WorkQueue, "complete", "executors.complete")
    aggregate(executors.WorkQueue, "reclaim_stale", "executors.reclaim_scan")
    for cls in (executors.InlineExecutor, executors.BatchedExecutor,
                executors.QueueExecutor):
        span(cls, "run", "executors.run")
    function(executors.run_queue_worker, "executors.worker")
    # The broker's poll loops sleep through the one `time` module; timing the
    # sleeps apart keeps idle waiting out of `executors.run_self_s`.
    tracer.patch_attr(
        time, "sleep", lambda f: tracer.wrap_aggregate("executors.wait", f)
    )


def layer_self_seconds(totals):
    """``layer -> busy self seconds`` over every wrapped name (roots go to
    ``ledger``: the time nothing wrapped accounts for; sleeping is left out)."""
    layers = {}
    for name, (_, _, self_s, _) in totals.items():
        if name == "executors.wait":
            continue
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    return layers


def per_layer_metrics(totals, *, traced_wall_s, untraced_wall_s, stats,
                      broker, span_count):
    """Every ``PER_LAYER`` metric of one workload.

    ``totals`` is ``Tracer.self_seconds_by_name()`` of the traced pass and
    ``stats`` the counts its workload read from its results; ``broker`` is
    the same from the untraced pass, where two real worker processes drained
    the queue. Host-time ratios against a wall use the untraced wall.
    """
    zero = (0, 0.0, 0.0, 0.0)

    def count(name):
        return totals.get(name, zero)[0]

    def self_s(*names):
        return sum(totals.get(name, zero)[2] for name in names)

    def value(name):
        return totals.get(name, zero)[3]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    wall_s = untraced_wall_s
    events = value("algorithms.run") + value("simulation.batched_run")
    raw_rate = stats["raw_engine_events_per_s"]
    iterations = stats["iterations"]
    hits = stats.get("policy_cache_hits", 0)
    cold = stats.get("policy_cache_cold_solves", 0)
    root_s = sum(totals.get(name, zero)[1] for name in ROOT_SPANS)
    metrics = {
        "simulation.events": events,
        "simulation.events_per_s": ratio(events, wall_s),
        "simulation.raw_engine_events_per_s": raw_rate,
        "simulation.engine_est_s": ratio(events, raw_rate),
        "simulation.batched_run_self_s": self_s(
            "simulation.batched_init", "simulation.batched_run"
        ),
        "simulation.batched_events_per_s": ratio(
            value("simulation.batched_run"),
            totals.get("simulation.batched_run", zero)[1],
        ),
        "algorithms.run_self_s": self_s("algorithms.run"),
        "algorithms.us_per_event": 1e6 * ratio(
            self_s("algorithms.run"), value("algorithms.run")
        ),
        "algorithms.build_s": self_s("algorithms.build"),
        "algorithms.iterations": iterations,
        "core.policy_solve_s": self_s(
            "core.policy_cache", "core.generate_policy", "core.lp"
        ),
        "core.policy_solves": count("core.generate_policy"),
        "core.lp_calls": count("core.lp"),
        "core.monitor_tick_self_s": self_s("core.monitor_tick"),
        "core.policy_cache_hits": hits,
        "core.policy_cache_cold_solves": cold,
        "core.policy_cache_hit_ratio": ratio(hits, hits + cold),
        "core.consensus_s": self_s("core.consensus"),
        "network.link_query_s": self_s("network.link_query"),
        "network.link_queries": count("network.link_query"),
        "network.transfer_self_s": self_s(
            "network.transfer_begin", "network.transfer_end"
        ),
        "network.transfers": count("network.transfer_begin"),
        "network.compute_time_s": self_s("network.compute_time"),
        "network.bytes_moved": value("network.transfer_begin"),
        "network.bytes_per_iteration": ratio(
            value("network.transfer_begin"), iterations
        ),
        "graph.build_s": self_s("graph.build"),
        "graph.dynamic_adjacency_s": self_s("graph.dynamic_adjacency"),
        "ml.loss_and_grad_s": self_s("ml.loss_and_grad"),
        "ml.grad_calls": count("ml.loss_and_grad"),
        "ml.eval_s": self_s("ml.eval"),
        "ml.optimizer_step_s": self_s("ml.optimizer_step"),
        "scenarios.build_s": self_s("scenarios.build"),
        "scenarios.workload_build_s": self_s("scenarios.workload_build"),
        "sweeps.cells": stats.get("cells", 0),
        "sweeps.spec_build_s": self_s("sweeps.spec_build"),
        "sweeps.run_sweep_self_s": self_s(
            "sweeps.run_sweep", "sweeps.cell", "sweeps.cell_build"
        ),
        "sweeps.aggregate_s": self_s("sweeps.aggregate"),
        "executors.cache_store_s": self_s("executors.cache_store"),
        "executors.cache_stores": count("executors.cache_store"),
        "executors.cache_load_s": self_s("executors.cache_load"),
        "executors.cache_loads": count("executors.cache_load"),
        "executors.cache_bytes_per_cell": stats.get("cache_bytes_per_cell", 0.0),
        "executors.enqueue_s": self_s("executors.enqueue"),
        "executors.claim_s": self_s("executors.claim"),
        "executors.claims": count("executors.claim"),
        "executors.complete_s": self_s("executors.complete"),
        "executors.run_self_s": self_s(
            "executors.run", "executors.worker", "executors.reclaim_scan"
        ),
        "executors.wait_s": self_s("executors.wait"),
        "executors.reclaims": broker.get("reclaims", 0),
        "executors.retries": broker.get("retries", 0),
        "executors.first_result_s": broker.get("first_result_s", 0.0),
        "executors.overhead_s": (
            wall_s - broker["busiest_worker_s"]
            if "busiest_worker_s" in broker else 0.0
        ),
        "executors.worker_busy_share": ratio(
            broker.get("busy_total_s", 0.0),
            broker.get("queue_workers", 0) * wall_s,
        ),
        "cli.import_s": broker["cli_import_s"],
        "ledger.trace_overhead_ratio": ratio(traced_wall_s, wall_s),
        "ledger.spans": span_count,
        "ledger.unattributed_share": ratio(self_s(*ROOT_SPANS), root_s),
    }
    for name in ("netmax_sim_epoch_time_s", "adpsgd_sim_epoch_time_s",
                 "netmax_sim_comm_cost_s", "netmax_sim_epoch_speedup_vs_adpsgd"):
        metrics[f"algorithms.{name}"] = stats.get(name, 0.0)
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}

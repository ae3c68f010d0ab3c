"""The ledger's five workloads.

Each workload turns ``(seed, size)`` into inputs for the program (specs,
scenarios, trainers), runs them through one public entry point, and checks
what came back. The program only ever sees the generated inputs: ``seed``
shifts every cell/trainer seed to ``1000 * seed + i``.

A workload object is one repetition: ``run.py``'s pass builds a fresh one
each time round and calls, in order,

- ``setup()``   -- build specs / scenarios / trainers (the first one counts
  in ``setup_s``);
- ``cold()``    -- the timed call (``wall_s``, ``cpu_s``), then the untimed
  ``after_cold()``;
- ``warm()``    -- returns ``warm_wall_s``: re-runs against the filled cache
  where the workload has one, else re-executes the first op in the now-warm
  process (the floor a result cache would have to beat);
- ``verify()``  -- untimed: invariants on every op, the ``results_digest``,
  and (once a pass) bitwise re-execution of a sample.

Sizes: ``reference`` is what ``BENCHMARK.json`` measures -- each timed call
is 1-2 s on the 2-core reference box, so that a 20 s pass holds 8-20
repetitions and reports their centre (README.md, "How a workload runs");
``smoke`` is the toy size of the tier-1 smoke test.
"""

import contextlib
import hashlib
import math
import os
import resource
import tempfile
import threading
import time

import numpy as np

# Functions the traced pass wraps are called through their modules
# (``sweeps.run_sweep(...)``), never through a name imported here: the tracer
# patches the attribute, and a copied binding would keep the original.
from repro.algorithms import registry
from repro.algorithms.base import TrainerConfig
from repro.experiments import executors, scenarios, sweeps
from repro.experiments.figures_scaling import (
    netmax_local_kwargs,
    scalability_scenario,
)
from repro.experiments.sweeps import RunSpec, ScenarioSpec, SweepSpec, WorkloadSpec
from repro.graph import DynamicTopology, EdgeSchedule
from repro.network.compression import make_compression_op
from repro.simulation.batched import BatchedSimulator
from repro.simulation.engine import Simulator

# Seed-sequence tag for the one random choice the ledger itself makes (which
# edge of the policy-adaptive full-scope graphs flaps).
_FLAP_EDGE_STREAM = 0x1ED6

SIZES = {
    "reference": {
        "sweep-reference": {
            "seeds": 2, "workers": 8, "samples": 512, "sim_time": 3.0,
            "policy_grid": 2, "warm_reruns": 20,
        },
        "event-loop": {
            # (algorithm, workers, sim_time, variant)
            "ops": (
                ("adpsgd", 16, 170.0, None),
                ("saps", 16, 55.0, None),
                ("netmax", 16, 155.0, "static"),
                ("adpsgd", 16, 40.0, "topk"),
                ("prague", 16, 500.0, None),
                ("allreduce", 16, 550.0, None),
                ("adpsgd", 256, 11.0, "expander"),
            ),
            "chains": 64, "chain_events": 60_000,
        },
        "batched-lockstep": {
            "fast_cells": 64, "fast_workers": 16, "fast_sim_time": 55.0,
            "fast_rechecks": 4,
            "general_seeds": 8, "general_workers": 8, "general_samples": 256,
            "general_sim_time": 2.0, "general_rechecks": 2,
        },
        "policy-adaptive": {
            # (scope, workers, sim_time, monitor ticks wanted). How many LPs
            # a grid solve runs depends on the graph and the measured times,
            # i.e. on the seed: one set of these four reads 9% from seed to
            # seed (interquartile range), three sets at three seeds each 4%.
            # The warm phase re-executes the first op of every set, the
            # steadiest of the four (8% alone; n = 16 with its second tick,
            # which about 1 seed in 20 skips as infeasible, 13%).
            "ops": (
                ("local", 32, 12.0, 1),
                ("local", 16, 12.0, 2),
                ("full", 8, 60.0, 3),
                ("full", 16, 60.0, 2),
            ),
            "replicas": 3,
            "full_grid": 4,
        },
        "sweep-service": {
            "seeds": 64, "workers": 4, "samples": 64, "sim_time": 0.5,
            "eval_max_samples": 16, "queue_workers": 2, "warm_reruns": 20,
            "recheck_every": 8,
        },
    },
    "smoke": {
        "sweep-reference": {
            "seeds": 1, "workers": 4, "samples": 64, "sim_time": 1.0,
            "policy_grid": 2, "warm_reruns": 2,
        },
        "event-loop": {
            "ops": (
                ("adpsgd", 16, 4.0, None),
                ("saps", 16, 2.0, None),
                ("netmax", 16, 4.0, "static"),
                ("adpsgd", 16, 2.0, "topk"),
                ("prague", 16, 8.0, None),
                ("allreduce", 16, 8.0, None),
                ("adpsgd", 64, 2.0, "expander"),
            ),
            "chains": 8, "chain_events": 2_000,
        },
        "batched-lockstep": {
            "fast_cells": 4, "fast_workers": 8, "fast_sim_time": 2.0,
            "fast_rechecks": 1,
            "general_seeds": 1, "general_workers": 4, "general_samples": 64,
            "general_sim_time": 0.5, "general_rechecks": 1,
        },
        "policy-adaptive": {
            "ops": (
                ("full", 4, 12.0, 1),
                ("local", 8, 6.0, 1),
            ),
            "replicas": 1,
            "full_grid": 2,
        },
        "sweep-service": {
            "seeds": 3, "workers": 4, "samples": 64, "sim_time": 0.5,
            "eval_max_samples": 16, "queue_workers": 2, "warm_reruns": 1,
            "recheck_every": 3,
        },
    },
}


def cell_seeds(seed, count):
    return tuple(1000 * seed + index for index in range(count))


# -- checking results ----------------------------------------------------------


def result_defect(result):
    """Why ``result`` fails the per-op invariants, or ``None`` if it passes."""
    if not math.isfinite(result.history.final_loss()):
        return "non-finite final loss"
    if not math.isfinite(result.sim_time):
        return "non-finite sim_time"
    if result.global_steps <= 0:
        return "zero global_steps"
    return None


def _result_arrays(result):
    history = result.history.as_arrays()
    return [result.final_params] + [history[key] for key in sorted(history)]


def same_result(a, b):
    """Bitwise equality of everything the digest covers."""
    if a.sim_time != b.sim_time or a.global_steps != b.global_steps:
        return False
    return all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(_result_arrays(a), _result_arrays(b))
    )


def results_digest(labelled_results):
    """sha256 over each op's label, final params, history, sim_time and
    global_steps, in grid order."""
    digest = hashlib.sha256()
    for label, result in labelled_results:
        digest.update(label.encode())
        for array in _result_arrays(result):
            digest.update(np.ascontiguousarray(array).tobytes())
        digest.update(float(result.sim_time).hex().encode())
        digest.update(str(int(result.global_steps)).encode())
    return digest.hexdigest()


def raw_engine_events(num_chains, total_events):
    """Run self-rescheduling no-op chains on a bare ``Simulator``; return
    ``(events executed, seconds)`` -- the engine's own cost per event, with
    no trainer on top."""
    sim = Simulator()
    remaining = [total_events]

    def tick():
        remaining[0] -= 1
        if remaining[0] >= num_chains:
            sim.schedule_in(1.0, tick)

    for chain in range(num_chains):
        sim.schedule_at(chain / num_chains, tick)
    start = time.perf_counter()
    sim.run(max_events=total_events + 1)
    return sim.events_processed, time.perf_counter() - start


# -- the workload protocol -----------------------------------------------------


class Workload:
    name = ""
    has_cache = False

    def __init__(self, seed, size, work_dir, tracer=None):
        self.seed = seed
        self.params = SIZES[size][self.name]
        self.work_dir = work_dir
        self.tracer = tracer
        self.results = []     # (label, TrainingResult) in grid order
        self.failures = []    # (label, reason)
        self.stats = {}       # counts the per-layer metrics are built from

    def setup(self):
        raise NotImplementedError

    def cold(self):
        raise NotImplementedError

    def after_cold(self):
        """Untimed reads of what the timed call left behind."""

    def warm(self):
        raise NotImplementedError

    def recheck(self):
        """Workload-specific bitwise re-execution; appends to ``failures``."""

    def collect_stats(self):
        """Counts read from the results, for the per-layer metrics."""

    def verify(self, recheck=True):
        for label, result in self.results:
            defect = result_defect(result)
            if defect is not None:
                self.failures.append((label, defect))
        if recheck:
            self.recheck()
        failed = {label for label, _ in self.failures}
        self.stats["iterations"] = sum(r.global_steps for _, r in self.results)
        self.collect_stats()
        return {
            "attempted": self.attempted,
            "failed": len(failed),
            "failures": [list(item) for item in self.failures[:20]],
            "results_digest": results_digest(self.results),
        }

    @property
    def attempted(self):
        return len(self.results)

    def _op(self, label):
        if self.tracer is not None:
            self.tracer.set_op(label)

    def _build_grid(self, make_spec):
        """Spec, ``cells()`` and every ``cache_key()``: what ``repro sweep``
        computes before it runs its first cell."""
        span = (self.tracer.span("sweeps.spec_build") if self.tracer is not None
                else contextlib.nullcontext())
        with span:
            self.spec = make_spec()
            self.cells = self.spec.cells()
            for cell in self.cells:
                cell.cache_key()

    def _run_trainers(self, trainers):
        """``trainer.run()`` per op; an op that raises is a failed op."""
        for label, trainer in trainers:
            self._op(label)
            try:
                result = trainer.run()
            except Exception as error:  # the op failed; the pass goes on
                self.failures.append((label, f"{type(error).__name__}: {error}"))
                continue
            self.results.append((label, result))
        self._op(None)

    def _warm_first_op(self, label, trainer):
        """Re-execute one op on a fresh trainer in the warm process; it must
        reproduce the cold result bit for bit."""
        start = time.perf_counter()
        result = trainer.run()
        elapsed = time.perf_counter() - start
        cold = dict(self.results).get(label)
        if cold is None or not same_result(cold, result):
            self.failures.append((label, "warm re-execution differs from cold"))
        return elapsed


def _sweep_results(sweep):
    return [(o.cell.label(), o.result) for o in sweep.outcomes]


def _policy_cache_stats(results):
    hits = cold = 0
    for _, result in results:
        cache = result.extras.get("policy_cache_stats")
        if cache is not None:
            hits += cache.hits
            cold += cache.cold_solves
    return {"policy_cache_hits": hits, "policy_cache_cold_solves": cold}


def _cache_bytes_per_cell(cache_dir, cells):
    sizes = [
        entry.stat().st_size for entry in os.scandir(cache_dir)
        if entry.name.endswith(".pkl")
    ]
    return sum(sizes) / max(1, cells)


# -- sweep-reference -----------------------------------------------------------


class SweepReference(Workload):
    """The ``repro sweep`` default shape, inline, cold then warm."""

    name = "sweep-reference"
    has_cache = True

    def _spec(self):
        p = self.params
        # Shrunk uniformly from the CLI default (sim-time 60, 8x8 LP grid):
        # the monitor's one tick still lands on the horizon and the LP keeps
        # about the share of the wall it has there (11%). The lower coverage
        # gate makes every NetMax cell solve at that tick whatever its seed,
        # as the 60 s default horizon does.
        netmax = (
            ("monitor_min_coverage", 0.5),
            ("monitor_period_s", p["sim_time"]),
            ("policy_inner_rounds", p["policy_grid"]),
            ("policy_outer_rounds", p["policy_grid"]),
        )
        return SweepSpec(
            algorithms=("netmax", "adpsgd", "saps", "allreduce"),
            seeds=cell_seeds(self.seed, p["seeds"]),
            scenarios=(
                ScenarioSpec("heterogeneous", p["workers"]),
                ScenarioSpec("homogeneous", p["workers"]),
            ),
            workload=WorkloadSpec(
                model="mobilenet", dataset="mnist", batch_size=32,
                num_samples=p["samples"],
            ),
            run=RunSpec(max_sim_time=p["sim_time"]),
            trainer_kwargs=(("netmax", netmax),),
        )

    def setup(self):
        self._build_grid(self._spec)
        self.cache_dir = tempfile.mkdtemp(dir=self.work_dir, prefix="cache-")

    def cold(self):
        self.sweep = sweeps.run_sweep(self.spec, cache_dir=self.cache_dir)
        self.table = sweeps.aggregate_sweep(self.sweep).render()
        self.results = _sweep_results(self.sweep)

    def warm(self):
        start = time.perf_counter()
        for _ in range(self.params["warm_reruns"]):
            self.warm_sweep = sweeps.run_sweep(self.spec, cache_dir=self.cache_dir)
            sweeps.aggregate_sweep(self.warm_sweep).render()
        return time.perf_counter() - start

    def recheck(self):
        if self.sweep.cells_from_cache:
            self.failures.append(("sweep", "cold run was served from cache"))
        for cold, warm in zip(self.sweep.outcomes, self.warm_sweep.outcomes):
            label = cold.cell.label()
            if not warm.from_cache:
                self.failures.append((label, "warm run re-executed the cell"))
            elif not same_result(cold.result, warm.result):
                self.failures.append((label, "cached result differs from cold"))

    def collect_stats(self):
        self.stats.update(self._modelled_costs())
        self.stats.update(_policy_cache_stats(self.results))
        self.stats["cells"] = len(self.cells)
        self.stats["cache_bytes_per_cell"] = _cache_bytes_per_cell(
            self.cache_dir, len(self.cells)
        )

    def _modelled_costs(self):
        """The paper's currency (Section V, Figs 5-6) on the heterogeneous
        cells, mean over seeds: simulated seconds, not host seconds."""
        summaries = {"netmax": [], "adpsgd": []}
        for outcome in self.sweep.outcomes:
            cell = outcome.cell
            if cell.scenario.kind == "heterogeneous" and cell.algorithm in summaries:
                summaries[cell.algorithm].append(outcome.result.costs.summary())
        netmax = float(np.mean([s["epoch_time"] for s in summaries["netmax"]]))
        adpsgd = float(np.mean([s["epoch_time"] for s in summaries["adpsgd"]]))
        comm = float(np.mean([s["communication_cost"] for s in summaries["netmax"]]))
        return {
            "netmax_sim_epoch_time_s": netmax,
            "adpsgd_sim_epoch_time_s": adpsgd,
            "netmax_sim_comm_cost_s": comm,
            "netmax_sim_epoch_speedup_vs_adpsgd": adpsgd / netmax,
        }


# -- event-loop ----------------------------------------------------------------


def _quadratic_trainer(algorithm, workers, sim_time, seed, topology, links,
                       noise_std=0.05, **trainer_kwargs):
    tasks, _, profile = scenarios.make_quadratic_workload(
        workers, noise_std=noise_std, seed=seed
    )
    config = TrainerConfig(
        max_sim_time=sim_time,
        eval_interval_s=sim_time / 10.0,
        seed=seed,
        iterations_per_epoch_hint=50,
    )
    return registry.create_trainer(
        algorithm, tasks, topology, links, profile, config, **trainer_kwargs
    )


class EventLoop(Workload):
    """Per-event ``trainer.run()`` on the sampler-less quadratic."""

    name = "event-loop"

    def _build(self, index):
        algorithm, workers, sim_time, variant = self.params["ops"][index]
        seed = 1000 * self.seed + index
        kwargs = {}
        if variant == "expander":
            topology, links = scalability_scenario(workers, seed=seed)
        else:
            scenario = scenarios.heterogeneous_scenario(workers, dynamic=False)
            topology, links = scenario.topology, scenario.links
        if variant == "static":
            kwargs["adaptive"] = False
        if variant == "topk":
            kwargs["compression"] = make_compression_op("topk", 0.05)
        label = f"{algorithm}{'-' + variant if variant else ''}/n{workers}/s{seed}"
        return label, _quadratic_trainer(
            algorithm, workers, sim_time, seed, topology, links, **kwargs
        )

    def setup(self):
        self.trainers = [self._build(i) for i in range(len(self.params["ops"]))]

    def cold(self):
        self._run_trainers(self.trainers)
        self.chain_events, self.chain_s = raw_engine_events(
            self.params["chains"], self.params["chain_events"]
        )

    def warm(self):
        return self._warm_first_op(*self._build(0))

    @property
    def attempted(self):
        return len(self.trainers) + 1  # + the bare-engine chain run

    def recheck(self):
        if self.chain_events != self.params["chain_events"]:
            self.failures.append(("raw-engine", "event count off"))


# -- batched-lockstep ----------------------------------------------------------


class BatchedLockstep(Workload):
    """The same trainer semantics driven SoA: the fast (vectorized) regime
    on noise-free quadratics, then the general regime on MLP cells."""

    name = "batched-lockstep"

    def _fast_trainer(self, index):
        p = self.params
        seed = 1000 * self.seed + index
        scenario = scenarios.heterogeneous_scenario(
            p["fast_workers"], dynamic=False, seed=1
        )
        return f"adpsgd-fast/n{p['fast_workers']}/s{seed}", _quadratic_trainer(
            "adpsgd", p["fast_workers"], p["fast_sim_time"], seed,
            scenario.topology, scenario.links, noise_std=0.0,
        )

    def _spec(self):
        p = self.params
        return SweepSpec(
            algorithms=("adpsgd", "saps"),
            seeds=cell_seeds(self.seed, p["general_seeds"]),
            scenarios=(ScenarioSpec("heterogeneous-static", p["general_workers"]),),
            workload=WorkloadSpec(
                model="mobilenet", dataset="mnist", batch_size=32,
                num_samples=p["general_samples"],
            ),
            run=RunSpec(max_sim_time=p["general_sim_time"]),
        )

    def setup(self):
        self.fast = [
            self._fast_trainer(i) for i in range(self.params["fast_cells"])
        ]
        self._build_grid(self._spec)

    def cold(self):
        engine = BatchedSimulator([trainer for _, trainer in self.fast])
        fast_results = engine.run()
        self.sweep = sweeps.run_sweep(self.spec, executor=executors.BatchedExecutor())
        self.table = sweeps.aggregate_sweep(self.sweep).render()
        self.results = [
            (label, result)
            for (label, _), result in zip(self.fast, fast_results)
        ] + _sweep_results(self.sweep)

    def warm(self):
        return self._warm_first_op(*self._fast_trainer(0))

    def recheck(self):
        p = self.params
        batched = dict(self.results)
        step = max(1, p["fast_cells"] // p["fast_rechecks"])
        # Skip cell 0: the warm phase already re-executed it.
        for index in range(step - 1, p["fast_cells"], step):
            label, trainer = self._fast_trainer(index)
            if not same_result(batched[label], trainer.run()):
                self.failures.append((label, "batched differs from inline"))
        step = max(1, len(self.cells) // p["general_rechecks"])
        for cell in self.cells[::step]:
            if not same_result(batched[cell.label()], cell.execute()):
                self.failures.append((cell.label(), "batched differs from inline"))

    def collect_stats(self):
        self.stats["cells"] = len(self.cells)


# -- policy-adaptive -----------------------------------------------------------


class PolicyAdaptive(Workload):
    """Adaptive NetMax on the quadratic: the monitor's Algorithm-3 LP grid
    does the work, the trainer loop next to none."""

    name = "policy-adaptive"

    def _op_spec(self, index):
        ops = self.params["ops"]
        return ops[index % len(ops)]

    def _build(self, index):
        scope, workers, sim_time, solves = self._op_spec(index)
        seed = 1000 * self.seed + index
        if scope == "full":
            # One edge, chosen from the seed, flaps at fixed times; every
            # flip makes the monitor re-solve through its PolicyCache, and
            # the periodic tick is pushed past the horizon, so the number of
            # solves is the number of flips whatever the seed.
            scenario = scenarios.heterogeneous_scenario(workers, dynamic=False)
            rng = np.random.default_rng([seed, _FLAP_EDGE_STREAM])
            a, b = sorted(rng.choice(workers, size=2, replace=False).tolist())
            period = 2.0 * sim_time / (solves + 1)
            schedule = EdgeSchedule.flapping(
                workers, (a, b), period_s=period, horizon_s=sim_time
            )
            topology = DynamicTopology(scenario.topology, schedule)
            links = scenario.links
            grid = self.params["full_grid"]
            kwargs = {
                "monitor_period_s": 2.0 * sim_time,
                "monitor_min_coverage": 0.5,
                "policy_outer_rounds": grid,
                "policy_inner_rounds": grid,
            }
        else:
            topology, links = scalability_scenario(workers, seed=seed)
            kwargs = netmax_local_kwargs(sim_time)
            kwargs["monitor_period_s"] = sim_time / (solves + 0.5)
        label = f"netmax-{scope}/n{workers}/s{seed}"
        return label, _quadratic_trainer(
            "netmax", workers, sim_time, seed, topology, links, **kwargs
        )

    def setup(self):
        count = len(self.params["ops"]) * self.params["replicas"]
        self.trainers = [self._build(i) for i in range(count)]

    def cold(self):
        self._run_trainers(self.trainers)

    def warm(self):
        firsts = range(0, len(self.trainers), len(self.params["ops"]))
        return sum(self._warm_first_op(*self._build(i)) for i in firsts)

    @property
    def attempted(self):
        return len(self.trainers)

    def recheck(self):
        # The sizing above fixes how often the monitor ticks, not what a tick
        # finds: on about 1 seed in 20 an ego's 2x2 grid has no feasible point
        # and the monitor skips that period (workers keep their policy), which
        # is the program's documented answer, not a failed op.
        by_label = dict(self.results)
        for index, (label, _) in enumerate(self.trainers):
            if label in by_label:
                stats = by_label[label].extras["monitor_stats"]
                if stats.ticks < self._op_spec(index)[3]:
                    self.failures.append((label, "monitor ticked too few times"))

    def collect_stats(self):
        self.stats.update(_policy_cache_stats(self.results))


# -- sweep-service -------------------------------------------------------------


class SweepService(Workload):
    """Tiny cells through the file broker: overhead-bound by construction."""

    name = "sweep-service"
    has_cache = True

    def _spec(self):
        p = self.params
        return SweepSpec(
            algorithms=("adpsgd", "saps"),
            seeds=cell_seeds(self.seed, p["seeds"]),
            scenarios=(ScenarioSpec("heterogeneous-static", p["workers"]),),
            workload=WorkloadSpec(
                model="mobilenet", dataset="mnist", batch_size=32,
                num_samples=p["samples"],
            ),
            run=RunSpec(
                max_sim_time=p["sim_time"],
                eval_max_samples=p["eval_max_samples"],
            ),
        )

    def setup(self):
        self._build_grid(self._spec)
        self.queue_dir = tempfile.mkdtemp(dir=self.work_dir, prefix="queue-")

    def cold(self):
        # Wrappers do not cross a process boundary: the traced pass keeps the
        # coordinator's own path and runs one worker on a thread instead of
        # the two worker processes the untraced passes spawn.
        workers = self.params["queue_workers"]
        self.worker_thread = None
        if self.tracer is not None:
            workers = 0
            self.worker_thread = threading.Thread(
                # Looked up at call time, so that the tracer's wrapper runs.
                target=lambda: executors.run_queue_worker(
                    self.queue_dir, poll_interval_s=0.1, drain_timeout_s=60.0,
                ),
            )
            self.worker_thread.start()
        self.started = time.time()
        self.sweep = sweeps.run_sweep(
            self.spec,
            executor=executors.QueueExecutor(self.queue_dir, num_workers=workers),
        )
        self.table = sweeps.aggregate_sweep(self.sweep).render()
        self.results = _sweep_results(self.sweep)

    def after_cold(self):
        """What the drain looked like from outside: per-worker busy time
        (each cell's ``runtime_s`` as its worker recorded it), the first
        result file's arrival, retries and reclaims."""
        if self.worker_thread is not None:
            self.worker_thread.join()  # it leaves at its next poll after STOP
        outcomes = self.sweep.outcomes
        busy = {}
        for outcome in outcomes:
            if math.isfinite(outcome.runtime_s):
                busy[outcome.worker] = busy.get(outcome.worker, 0.0) + outcome.runtime_s
        results_dir = executors.WorkQueue(self.queue_dir).default_results_dir()
        first = min(
            entry.stat().st_mtime for entry in os.scandir(results_dir)
            if entry.name.endswith(".pkl")
        )
        self.stats.update({
            "cells": len(self.cells),
            "queue_workers": self.params["queue_workers"],
            "retries": sum(outcome.attempts - 1 for outcome in outcomes),
            "reclaims": sum(
                int(record.get("cells_reclaimed", 0))
                for record in executors.WorkQueue(self.queue_dir).registry_records()
            ),
            "first_result_s": first - self.started,
            "busiest_worker_s": max(busy.values(), default=0.0),
            "busy_total_s": sum(busy.values()),
            "cache_bytes_per_cell": _cache_bytes_per_cell(
                results_dir, len(self.cells)
            ),
        })

    def warm(self):
        # No local workers on the re-runs: with every cell cached there is
        # nothing to claim, and a worker spawned into a queue whose STOP
        # marker is already written takes it for a stale one and sits until
        # the coordinator's 30 s join timeout (README, findings).
        executor = executors.QueueExecutor(self.queue_dir, num_workers=0)
        start = time.perf_counter()
        for _ in range(self.params["warm_reruns"]):
            self.warm_sweep = sweeps.run_sweep(self.spec, executor=executor)
            sweeps.aggregate_sweep(self.warm_sweep).render()
        return time.perf_counter() - start

    def recheck(self):
        if self.warm_sweep.cells_from_cache != len(self.cells):
            self.failures.append(("sweep", "warm run re-executed cells"))
        for outcome in self.sweep.outcomes[::self.params["recheck_every"]]:
            if not same_result(outcome.result, outcome.cell.execute()):
                self.failures.append(
                    (outcome.cell.label(), "queue result differs from inline")
                )


WORKLOADS = {
    cls.name: cls
    for cls in (SweepReference, EventLoop, BatchedLockstep, PolicyAdaptive,
                SweepService)
}


def peak_rss_mb():
    """Max RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def cpu_seconds():
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


"""Shared machinery for all decentralized trainers.

A trainer owns ``M`` :class:`WorkerTask`\\ s (model replica + local data),
a :class:`~repro.graph.Topology`, a link-speed model, and a
:class:`~repro.network.costmodel.ModelCostProfile`, and runs the training as
a discrete-event simulation. Subclasses implement :meth:`_setup` to schedule
their first events (per-worker loops for asynchronous algorithms, round
events for synchronous ones) and call :meth:`record_iteration` for every
local iteration so the epoch-cost decomposition of Figs. 5-6 is maintained
uniformly.

The trainer also owns the run's network state -- which workers are up
(churn) and which edges are live (a time-varying topology, kept as the one
frozen :class:`~repro.graph.Topology` of the current segment, never a dense
matrix) -- and answers the only question gossip asks of it in one place:
:meth:`DecentralizedTrainer.reachable` (peer active and edge live) and its
row form :meth:`DecentralizedTrainer.reachable_peers`.

Evaluation happens on the virtual clock too: every ``eval_interval_s``
simulated seconds, the mean training loss across workers (each on a fixed
probe of its own shard) and the test accuracy of the parameter-averaged
model are appended to the history -- the series behind Figs. 8-19.
"""

from __future__ import annotations

import abc
import copy
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.topology import Topology
from repro.ml.data import BatchSampler
from repro.ml.models import Model
from repro.ml.optim import EPOCH_FREE_SCHEDULES, LRSchedule, PlateauDecayLR, SGDConfig
from repro.network.costmodel import CommunicationModel, ComputeModel, ModelCostProfile
from repro.network.links import LinkSpeedModel
from repro.simulation.churn import ChurnSchedule
from repro.simulation.engine import Simulator
from repro.simulation.records import EpochCostTracker, TrainingHistory, TrainingResult

if TYPE_CHECKING:  # annotation-only: the trainer treats the op as opaque
    from repro.network.compression import CompressionOp

__all__ = ["WorkerTask", "TrainerConfig", "DecentralizedTrainer"]

# Seed-sequence tag separating the evaluation subsample stream from the
# training streams, so providing (or resizing) test data never perturbs
# worker seeding or any other training randomness.
_TEST_SUBSAMPLE_STREAM = 0x7E57

# Seed-sequence tag for the compression accuracy-impact model's per-worker
# noise streams. Dedicated and lazily created: a run without a lossy
# compression op builds no generator and consumes zero draws from any
# stream, so existing seeds reproduce bit-identically.
_COMPRESSION_STREAM = 0xC0B5


class WorkerTask:
    """One worker's model replica and local data shard.

    A task holds no reference to the trainer that owns it (a back-reference
    would make a reference cycle, and keep every finished trainer alive until
    the next cyclic garbage collection): a trainer draws through
    :meth:`DecentralizedTrainer.sample_loss_and_grad`, which books the
    draw's progress itself.

    Args:
        model: the replica ``x_i``. All workers should start from identical
            parameters (the analysis measures ``||x^0 - x* 1||``).
        sampler: minibatch source over the local shard ``D_i``; ``None`` for
            data-free objectives such as the quadratic consensus problems,
            in which case epochs are counted as
            ``iterations / iterations_per_epoch_hint``.
    """

    def __init__(self, model: Model, sampler: BatchSampler | None = None):
        self.model = model
        self.sampler = sampler
        self.iterations = 0

    def sample_loss_and_grad(self) -> tuple[float, np.ndarray]:
        """Draw a minibatch (if any) and return loss + flat gradient."""
        self.iterations += 1
        if self.sampler is None:
            return self.model.loss_and_grad()
        features, labels = self.sampler.next_batch()
        return self.model.loss_and_grad(features, labels)

    @property
    def batch_size(self) -> int | None:
        return self.sampler.batch_size if self.sampler is not None else None

    def epoch_progress(self, iterations_per_epoch_hint: int) -> float:
        if self.sampler is not None:
            return self.sampler.epoch_progress
        return self.iterations / iterations_per_epoch_hint


@dataclass
class TrainerConfig:
    """Run-wide knobs shared by every algorithm.

    Attributes:
        lr_schedule: learning-rate schedule (paper default: 0.1 with
            decay-on-plateau).
        sgd: momentum / weight-decay settings (paper: 0.9 / 1e-4).
        max_sim_time: virtual-seconds budget for the run.
        max_epochs: optional mean-epoch stopping criterion (the paper trains
            for a fixed epoch count in most experiments).
        eval_interval_s: evaluation cadence on the virtual clock.
        eval_max_samples: per-worker probe size for train-loss evaluation
            and test-set subsample for accuracy.
        seed: root seed; every random stream of the run derives from it.
        max_events: hard cap on simulator events (guards runaway loops).
        iterations_per_epoch_hint: epoch length for sampler-less tasks.
    """

    lr_schedule: LRSchedule = field(default_factory=lambda: PlateauDecayLR(0.1))
    sgd: SGDConfig = field(default_factory=SGDConfig)
    max_sim_time: float = 600.0
    max_epochs: float | None = None
    eval_interval_s: float = 10.0
    eval_max_samples: int = 256
    seed: int = 0
    max_events: int = 5_000_000
    iterations_per_epoch_hint: int = 50

    def __post_init__(self) -> None:
        if self.max_sim_time <= 0:
            raise ValueError("max_sim_time must be positive")
        if self.max_epochs is not None and self.max_epochs <= 0:
            raise ValueError("max_epochs must be positive when set")
        if self.eval_interval_s <= 0:
            raise ValueError("eval_interval_s must be positive")
        if self.eval_max_samples < 1:
            raise ValueError("eval_max_samples must be >= 1")
        if self.iterations_per_epoch_hint < 1:
            raise ValueError("iterations_per_epoch_hint must be >= 1")


class DecentralizedTrainer(abc.ABC):
    """Event-driven training run; subclasses wire the algorithm's events.

    Args:
        tasks: one :class:`WorkerTask` per worker.
        topology: communication graph (must be connected, Assumption 1).
        links: link-speed model for the run.
        profile: paper-scale cost profile (message bytes, compute time).
        config: run-wide configuration.
        test_data: optional ``(features, labels)`` for accuracy evaluation.
        churn: optional :class:`~repro.simulation.churn.ChurnSchedule` of
            worker departures/rejoins. Gossip trainers park a
            departed worker's loop (model frozen in place, so a rejoin
            resumes from its last state), peers renormalize selection over
            the active set, and no transfer may start against a departed
            endpoint (:meth:`start_transfer` enforces this). Synchronous
            trainers use round-based semantics instead
            (:meth:`round_participants`): stragglers departed at round
            start are dropped, aggregation weights renormalize over the
            members, and rejoiners are re-admitted at the next round.
        compression: optional
            :class:`~repro.network.compression.CompressionOp`. Two
            effects: (1) every transfer's ``message_bytes`` becomes the
            op's compressed size (all trainers, via the comm model); (2)
            gossip pulls route through :meth:`pulled_params`, which applies
            the op's multiplicative noise/contraction to the pulled model
            difference from a dedicated per-worker
            ``[seed, _COMPRESSION_STREAM, worker]`` stream (gossip
            trainers only -- the synchronous baselines' dense collectives
            model compression as a bytes effect alone). The ``none`` op is
            normalized away at construction, so it is bit-identical to
            passing no op: same bytes, zero RNG draws.

    Nothing a trainer owns points back at it once :meth:`run` has
    returned: its tasks draw through :meth:`sample_loss_and_grad`, and
    :meth:`_finalize_result` drops the events still queued. A sweep that
    runs trainers one after another in one process frees each by
    reference counting as soon as its result is returned, not at the next
    cyclic garbage collection.
    """

    name = "base"
    # Whether this algorithm knows how to gossip over a time-varying edge
    # set (a DynamicTopology). Gossip trainers select peers through
    # reachable() (peer active and edge live) and never start a transfer
    # on a failed edge; the synchronous baselines treat the link
    # model as a routed underlay and have no per-edge semantics, so they
    # reject dynamic topologies explicitly rather than silently ignoring
    # the schedule.
    supports_dynamic_edges = False
    # Whether the batched sweep backend (repro.simulation.batched) accepts
    # this trainer. Opt-in per algorithm: for the cells it vectorizes, the
    # engine mirrors the trainer's gossip iteration structure-of-arrays
    # style, so it must replicate the hot path's exact operation and
    # RNG-draw order (cells it does not vectorize run through their own
    # run()) -- a trainer the engine has not been taught (and whose
    # bit-identity is not pinned by tests) must not advertise the capability.
    supports_batched = False

    def __init__(
        self,
        tasks: list[WorkerTask],
        topology: Topology,
        links: LinkSpeedModel,
        profile: ModelCostProfile,
        config: TrainerConfig,
        test_data: tuple[np.ndarray, np.ndarray] | None = None,
        churn: ChurnSchedule | None = None,
        compression: "CompressionOp | None" = None,
    ):
        if len(tasks) != topology.num_workers:
            raise ValueError(
                f"{len(tasks)} tasks but topology has {topology.num_workers} workers"
            )
        if links.num_workers != topology.num_workers:
            raise ValueError("link model and topology disagree on worker count")
        topology.require_connected()
        if topology.is_dynamic and not self.supports_dynamic_edges:
            raise ValueError(
                f"trainer {self.name!r} does not support time-varying topologies"
            )
        if churn is not None and churn.num_workers != topology.num_workers:
            raise ValueError(
                f"churn schedule is for {churn.num_workers} workers but "
                f"topology has {topology.num_workers}"
            )
        dims = {task.model.dim for task in tasks}
        if len(dims) != 1:
            raise ValueError(f"all worker models must share a dimension, got {dims}")
        if compression is not None and compression.name == "none":
            # The identity op is the absence of compression: normalizing it
            # away here keeps the default path literally the pre-compression
            # code (no op checks, no RNG streams), which is what makes the
            # "compression=none is bit-identical" golden pin trivially true.
            compression = None
        self.tasks = tasks
        self.topology = topology
        # Loss-adaptive LR schedules are stateful and the trainer mutates
        # them, so every trainer owns a private copy of its configuration.
        self.config = copy.deepcopy(config)
        self.profile = profile
        self.compression = compression
        self.comm = CommunicationModel(links, compression=compression)
        self._message_bytes = self.comm.payload_bytes(profile)
        # Per-worker noise streams of the accuracy-impact model, created
        # only for a lossy op: the default path must consume zero draws.
        error = compression.error_factor() if compression is not None else 0.0
        self._compression_error = float(error)
        if error > 0.0:
            self._compression_rngs = [
                np.random.default_rng([config.seed, _COMPRESSION_STREAM, worker])
                for worker in range(len(tasks))
            ]
        else:
            self._compression_rngs = None
        self.compute_model = ComputeModel(profile, len(tasks))
        self.rng = np.random.default_rng(config.seed)
        self.sim = Simulator()
        self.history = TrainingHistory()
        self.costs = EpochCostTracker(len(tasks))
        self._epoch_boundaries_seen = [0] * len(tasks)
        self._eval_model = tasks[0].model.clone()
        self._test_data = self._subsample_test(test_data)
        self._probes = [self._make_probe(task) for task in tasks]
        # O(1) per-event accounting: epoch progress and iteration totals are
        # maintained incrementally, one draw at a time, by
        # sample_loss_and_grad instead of an O(M) pass over all workers
        # before every simulator event.
        self._epoch_hint = self.config.iterations_per_epoch_hint
        self._progress = [task.epoch_progress(self._epoch_hint) for task in tasks]
        self._progress_sum = float(sum(self._progress))
        self._iterations_total = int(sum(task.iterations for task in tasks))
        self._lr_value = self.config.lr_schedule.lr(self._progress_sum / len(tasks))
        self._lr_dirty = False
        # Progress can move only a rate that reads the epoch; evaluate()
        # marks the cache stale for the others.
        self._lr_follows_epoch = (
            type(self.config.lr_schedule) not in EPOCH_FREE_SCHEDULES
        )
        self._worker_batches = [
            task.batch_size if task.batch_size is not None else profile.reference_batch
            for task in tasks
        ]
        self.churn = churn
        self._active = [True] * len(tasks)
        self._all_active = True
        # Time-varying topology state: the frozen Topology of the edges live
        # right now (the CSR segment a DynamicTopology precomputed; a static
        # topology is its own live graph for the whole run) plus a fast-path
        # flag -- every edge schedule starts with all base edges up.
        self._edges_dynamic = bool(topology.is_dynamic)
        self._live = topology.topology_at(0.0)
        self._edges_all_up = True
        # (time, a, b, kind) edge transitions actually executed, for
        # diagnostics and the dynamic-edge correctness tests.
        self.edge_log: list[tuple[float, int, int, str]] = []
        # Per-worker loop generation: bumped on every departure so iteration
        # continuations scheduled before the leave are recognizably stale.
        # Without it, a rejoin that lands while a pre-departure event is
        # still in flight would start a second concurrent loop for the
        # worker (the stale completion would also reschedule).
        self._churn_epoch = [0] * len(tasks)
        # (time, worker, kind) transitions actually executed, for diagnostics
        # and the churn correctness tests.
        self.churn_log: list[tuple[float, int, str]] = []
        # (time, members) of every synchronous aggregation actually applied
        # (full rounds for allreduce/PS-syn, groups for Prague, single-worker
        # applications for PS-asyn). The churn conservation tests check every
        # entry against the schedule: no aggregate may include a departed
        # worker. Only populated when a churn schedule is attached -- on
        # churn-free runs the log would grow with every update for no reader.
        self.round_log: list[tuple[float, tuple[int, ...]]] = []

    # -- construction helpers -------------------------------------------------

    def _subsample_test(
        self, test_data: tuple[np.ndarray, np.ndarray] | None
    ) -> tuple[np.ndarray, np.ndarray] | None:
        if test_data is None:
            return None
        features, labels = test_data
        features = np.asarray(features)
        labels = np.asarray(labels)
        if features.shape[0] != labels.shape[0]:
            raise ValueError("test features and labels disagree on sample count")
        cap = self.config.eval_max_samples
        if features.shape[0] > cap:
            # A dedicated stream (not self.rng): training randomness must be
            # invariant to whether and how much test data was provided.
            eval_rng = np.random.default_rng([self.config.seed, _TEST_SUBSAMPLE_STREAM])
            idx = eval_rng.choice(features.shape[0], size=cap, replace=False)
            return features[idx], labels[idx]
        return features, labels

    def _make_probe(self, task: WorkerTask) -> tuple[np.ndarray, np.ndarray] | None:
        if task.sampler is None:
            return None
        dataset = task.sampler.dataset
        cap = min(self.config.eval_max_samples, len(dataset))
        return dataset.features[:cap], dataset.labels[:cap]

    # -- common queries --------------------------------------------------------

    @property
    def num_workers(self) -> int:
        return len(self.tasks)

    @property
    def message_bytes(self) -> int:
        """Wire bytes per model transfer (compressed when an op is set)."""
        return self._message_bytes

    def compute_time(self, worker: int) -> float:
        """Local gradient computation time ``C_i`` for one iteration."""
        return self.compute_model.compute_time(worker, self._worker_batches[worker])

    def reachable(self, worker: int, peer: int) -> bool:
        """Whether ``worker`` can gossip with its neighbor ``peer`` right now.

        The run's one liveness rule: ``peer`` is active and the edge
        ``(worker, peer)`` is live. ``peer`` must be a base-graph neighbor
        of ``worker`` (every caller draws it from a neighbor cache), so
        while every edge is up the graph is not consulted at all.
        """
        return self._active[peer] and (
            self._edges_all_up or self._live.has_edge(worker, peer)
        )

    def reachable_peers(
        self, worker: int, neighbors: np.ndarray
    ) -> np.ndarray | list[int]:
        """``neighbors`` filtered, in order, by :meth:`reachable`.

        ``neighbors`` is any subset of ``worker``'s base-graph neighbors;
        with every worker up and every edge live (always, on a static graph
        without churn) it is returned as is. Otherwise one pass intersects
        it with the live CSR row: O(deg), no per-neighbor binary search.
        """
        if self._all_active and self._edges_all_up:
            return neighbors
        live = set(self._live.neighbors(worker).tolist())
        return [n for n in neighbors.tolist() if self._active[n] and n in live]

    def active_workers(self) -> list[int]:
        """Indices of the currently active workers."""
        return [i for i, active in enumerate(self._active) if active]

    def mean_epoch(self) -> float:
        """Mean epoch progress across workers, maintained incrementally."""
        return self._progress_sum / len(self.tasks)

    def current_lr(self) -> float:
        if self._lr_dirty:
            self._lr_value = self.config.lr_schedule.lr(
                self._progress_sum / len(self.tasks)
            )
            self._lr_dirty = False
        return self._lr_value

    def total_iterations(self) -> int:
        return self._iterations_total

    def params_matrix(self) -> np.ndarray:
        return np.stack([task.model.get_params() for task in self.tasks])

    # -- accounting --------------------------------------------------------------

    def sample_loss_and_grad(self, worker: int) -> tuple[float, np.ndarray]:
        """``worker``'s task draws a minibatch: its loss and flat gradient.

        Every trainer draws through here, and the draw's progress is booked
        in the same call (O(1)): :meth:`WorkerTask.epoch_progress`, written
        out, since this runs once per iteration.
        """
        task = self.tasks[worker]
        result = task.sample_loss_and_grad()
        sampler = task.sampler
        if sampler is None:
            progress = task.iterations / self._epoch_hint
        else:
            progress = sampler.epoch_progress
        self._progress_sum += progress - self._progress[worker]
        self._progress[worker] = progress
        self._iterations_total += 1
        if self._lr_follows_epoch:
            self._lr_dirty = True
        return result

    def start_transfer(self, receiver: int, sender: int) -> float:
        """One model-sized transfer via the comm model, with churn and
        live-edge guards.

        All gossip-style trainers route their pulls through here: starting a
        transfer against a departed endpoint -- or over a currently-failed
        edge of a time-varying topology -- is a protocol violation (the
        conservation properties the churn and dynamic-edge tests pin down),
        not a recoverable condition: peer selection must already have
        skipped it.
        """
        if not (self._active[receiver] and self._active[sender]):
            raise RuntimeError(
                f"transfer {sender} -> {receiver} at t={self.sim.now:.3f} "
                "targets a departed worker"
            )
        if self._edges_dynamic and not self._live.has_edge(receiver, sender):
            raise RuntimeError(
                f"transfer {sender} -> {receiver} at t={self.sim.now:.3f} "
                "crosses a currently-failed edge"
            )
        return self.comm.begin_transfer(receiver, sender, self.message_bytes, self.sim.now)

    def pulled_params(self, worker: int, peer: int) -> np.ndarray:
        """``peer``'s parameters as ``worker`` receives them over the wire.

        The accuracy-impact model of lossy compression: the op's
        ``error_factor`` ``eps`` scales the pulled model *difference* by a
        multiplicative factor ``m = (1 - eps) + sqrt(eps (1 - eps)) * z``
        with ``z`` a standard normal from ``worker``'s dedicated
        ``[seed, _COMPRESSION_STREAM, worker]`` stream. Calibration:
        ``E[m] = 1 - eps`` (the mean contraction of a compressor keeping a
        ``1 - eps`` energy fraction, e.g. top-k's bias toward zero
        residual) and ``E[(m - 1)^2] = eps`` exactly -- so the modeled
        residual energy ``E||C(d) - d||^2 = eps ||d||^2`` matches the op's
        declared ``error_factor`` by construction, and ``|m| <= 1`` up to
        sub-unit noise for every ``eps`` in ``(0, 1)`` (gossip stays
        contractive on average). Every gossip trainer routes its pulls
        through here; without a lossy op this returns the peer's
        parameters untouched and draws nothing, so the default path is
        bit-identical to the pre-compression trainers.

        No copy is made: without a lossy op the result *is* the peer's
        parameter buffer. Every caller only reads it, inside the update
        that pulls, and must neither write nor keep it.
        """
        peer_params = self.tasks[peer].model._params
        if self._compression_rngs is None:
            return peer_params
        eps = self._compression_error
        scale = (1.0 - eps) + (eps * (1.0 - eps)) ** 0.5 * float(
            self._compression_rngs[worker].standard_normal()
        )
        own = self.tasks[worker].model._params
        return own + scale * (peer_params - own)

    # -- churn -----------------------------------------------------------------

    def _schedule_churn(self) -> None:
        """Schedule every churn transition (called before ``_setup`` so churn
        events win simulator ties against same-time iteration events)."""
        if self.churn is None:
            return
        for event in self.churn.events:
            if event.time < self.config.max_sim_time:
                self.sim.schedule_at(event.time, partial(self._churn_event, event))

    def _churn_event(self, event) -> None:
        worker, kind = event.worker, event.kind
        if kind == "leave":
            if not self._active[worker]:
                raise RuntimeError(f"worker {worker} left twice")
            self._active[worker] = False
            self._all_active = False
            self._churn_epoch[worker] += 1
            self.churn_log.append((self.sim.now, worker, "leave"))
            self._on_worker_leave(worker)
        else:
            if self._active[worker]:
                raise RuntimeError(f"worker {worker} joined while active")
            self._active[worker] = True
            self._all_active = all(self._active)
            self.churn_log.append((self.sim.now, worker, "join"))
            self._on_worker_join(worker)

    def _on_worker_leave(self, worker: int) -> None:
        """Hook: ``worker`` just departed (subclasses update selection state)."""

    def _on_worker_join(self, worker: int) -> None:
        """Hook: ``worker`` just rejoined (subclasses restart its loop)."""

    # -- time-varying edges ----------------------------------------------------

    def _schedule_edge_flips(self) -> None:
        """Schedule every edge-set change of a time-varying topology.

        Called between ``_schedule_churn`` and ``_setup``: at equal times,
        churn transitions apply first, then edge flips, then iteration
        events -- a fixed, documented order the deterministic-replay
        guarantee relies on.
        """
        if not self._edges_dynamic:
            return
        for time in self.topology.flip_times():
            if time < self.config.max_sim_time:
                self.sim.schedule_at(time, self._edge_flip_event)

    def _edge_flip_event(self) -> None:
        new = self.topology.topology_at(self.sim.now)
        # Edge lists, not matrices: a flip costs O(E), and the sorted
        # symmetric difference is the (a, b)-ascending order of the log.
        for a, b in sorted(set(self._live.edges()) ^ set(new.edges())):
            kind = "repair" if new.has_edge(a, b) else "fail"
            self.edge_log.append((self.sim.now, a, b, kind))
        self._live = new
        # The live graph is a subgraph of the base: equal counts, equal sets.
        self._edges_all_up = new.num_edges() == self.topology.num_edges()
        self._on_edges_changed()

    def _on_edges_changed(self) -> None:
        """Hook: the live edge set just changed (subclasses re-derive their
        selection state through :meth:`reachable`)."""

    def round_participants(self) -> list[int]:
        """Membership of a synchronous round starting now: the active set.

        Round-based churn semantics (allreduce, PS-syn): a worker departed
        at round start is dropped from the round entirely -- it computes no
        gradient, contributes nothing to the aggregate, and its replica
        stays frozen -- while the aggregation weights renormalize over the
        members (a plain mean over however many participate). Rejoiners are
        picked up here at their next round. Every call is recorded in
        ``round_log``.
        """
        members = self.active_workers()
        self.record_round(members)
        return members

    def record_round(self, members: Sequence[int]) -> None:
        """Log one applied aggregation (for diagnostics and churn tests)."""
        if self.churn is not None:
            self.round_log.append((self.sim.now, tuple(members)))

    def record_iteration(self, worker: int, compute_time: float, duration: float) -> None:
        """Book one finished local iteration into the cost tracker."""
        self.costs.record_iteration(worker, compute_time, duration)
        task = self.tasks[worker]  # whole epochs, as in sample_loss_and_grad
        sampler = task.sampler
        if sampler is None:
            completed = task.iterations // self._epoch_hint
        else:
            completed = sampler.epochs_completed
        while self._epoch_boundaries_seen[worker] < completed:
            self.costs.record_epoch_boundary(worker)
            self._epoch_boundaries_seen[worker] += 1

    # -- evaluation ----------------------------------------------------------------

    def train_loss(self) -> float:
        """Mean loss across *active* workers, each on its fixed local probe.

        Departed replicas are frozen and excluded -- the metric tracks the
        learners that are actually training (with no churn this is simply
        every worker).
        """
        losses = []
        for worker in self.active_workers():
            task, probe = self.tasks[worker], self._probes[worker]
            if probe is None:
                losses.append(task.model.loss())
            else:
                losses.append(task.model.loss(probe[0], probe[1]))
        return float(np.mean(losses))

    def test_accuracy(self) -> float:
        """Accuracy of the active-worker parameter average on the test probe."""
        if self._test_data is None:
            return float("nan")
        self._eval_model.set_params(
            self.params_matrix()[self.active_workers()].mean(axis=0)
        )
        return self._eval_model.accuracy(self._test_data[0], self._test_data[1])

    def evaluate(self) -> None:
        loss = self.train_loss()
        self.history.add(
            time=self.sim.now,
            global_step=self.total_iterations(),
            epoch=self.mean_epoch(),
            train_loss=loss,
            test_accuracy=self.test_accuracy(),
        )
        self.config.lr_schedule.observe_loss(loss)
        # Loss-adaptive schedules may have changed their rate.
        self._lr_dirty = True

    def _evaluation_event(self) -> None:
        self.evaluate()
        next_time = self.sim.now + self.config.eval_interval_s
        if next_time < self.config.max_sim_time:
            self.sim.schedule_at(next_time, self._evaluation_event)

    # -- the run ---------------------------------------------------------------------

    def _should_stop(self) -> bool:
        """The epoch cap (:meth:`run` asks only when ``max_epochs`` is set)."""
        return self.mean_epoch() >= self.config.max_epochs

    @abc.abstractmethod
    def _setup(self) -> None:
        """Schedule the algorithm's initial events."""

    def _extras(self) -> dict:
        """Algorithm-specific diagnostics added to the result."""
        return {}

    def _finalize_result(self) -> TrainingResult:
        """Assemble the result once the event loop has stopped.

        Shared verbatim by :meth:`run` and the batched backend (which stops
        the lockstep engine, syncs trainer state, and calls this), so both
        paths produce the final evaluation, extras, and result through the
        same code. Every event still pending (beyond the horizon, or past
        an epoch or event cap) is dropped once the extras are read: each is
        a callback bound to this trainer, and a queue kept past the run
        would make the trainer a reference cycle, alive until the next
        cyclic garbage collection instead of freed with its last reference.
        """
        # The run may have halted right after a scheduled evaluation (e.g. a
        # max_epochs or max_events stop); re-evaluating at the same virtual
        # time would duplicate the history point and double-feed
        # loss-adaptive LR schedules, biasing plateau detection.
        if not self.history.times or self.history.times[-1] != self.sim.now:
            self.evaluate()
        extras = self._extras()
        if self.churn is not None:
            extras["churn_events"] = list(self.churn_log)
        if self._edges_dynamic:
            extras["edge_events"] = list(self.edge_log)
        self.sim.discard_pending()
        return TrainingResult(
            algorithm=self.name,
            history=self.history,
            costs=self.costs,
            final_params=self.params_matrix(),
            sim_time=self.sim.now,
            global_steps=self.total_iterations(),
            extras=extras,
        )

    def run(self) -> TrainingResult:
        """Execute the training run to its stopping criterion."""
        self._schedule_churn()
        self._schedule_edge_flips()
        self._setup()
        self.sim.schedule_at(0.0, self._evaluation_event)
        self.sim.run(
            until_time=self.config.max_sim_time,
            max_events=self.config.max_events,
            # Asked before every event, so only when there is an epoch cap.
            stop_condition=(
                None if self.config.max_epochs is None else self._should_stop
            ),
        )
        return self._finalize_result()

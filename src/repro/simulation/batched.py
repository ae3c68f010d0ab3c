"""Lockstep batched execution of many independent training runs.

The sweep grids behind the paper's figures are embarrassingly parallel at
the *cell* level -- every (algorithm, scenario, seed) cell is an
independent discrete-event simulation -- but the per-cell event loop pays
Python dispatch for every simulated event. This module advances many
*vectorizable* cells through **one** structure-of-arrays engine: each
round pops exactly one earliest event per live cell, and the per-event
trainer math (gradient, progress bookkeeping, mixing, SGD step) is applied
across the whole batch with vectorized numpy.

Why one-pop-per-round is safe: cells never interact, so *any* cross-cell
interleaving of events is valid; and within a cell, one pop per round
serializes that cell's events in exactly the heap order -- ``(time,
sequence)`` with sequence assigned in the same order the inline trainer
would have scheduled them -- so every cell replays its inline run event
for event.

A cell is vectorizable when every task is a sampler-less
:class:`~repro.ml.problems.QuadraticProblem` (whose curvature is diagonal)
and its model dimension is the batch's. Parameters, velocities, targets,
curvatures, and all progress/cost counters then live in
``[cells, workers, dim]`` / ``[cells, workers]`` arrays, and one round's
completions are processed with a handful of vectorized operations. Any
other accepted cell (MLP tasks or sampler-backed quadratics) is not
mirrored at all: once the lockstep cells are done,
:meth:`BatchedSimulator.run` calls that cell's own ``trainer.run()``, so
it equals the inline run by construction and at per-event speed. The
engine mirrors only what it vectorizes.

Determinism contract (pinned by the bit-identity suite):

- every random stream is the *trainer's own* per-cell, per-worker stream;
  the engine creates no generators of its own, and touches none that
  belongs to a cell it will not vectorize;
- lockstep peer selection prefetches draws in blocks of
  ``rng.integers(n, size=B)``, which consumes the PCG64 stream identically
  to ``B`` scalar ``rng.integers(n)`` calls, so the drawn peer sequence is
  bit-for-bit the inline one (the block tail may leave a selection stream
  further advanced than inline at shutdown -- nothing reads it afterwards);
- all floating-point mirrors repeat the inline hot path's exact operation
  order on float64, so results are bitwise equal, not approximately equal.

The engine deliberately reaches into trainer internals (``_optimizers``,
``_progress``, cost-tracker buffers): it is the structure-of-arrays mirror
of :class:`~repro.algorithms.gossip.GossipTrainer`'s iteration under
AD-PSGD's two hooks, versioned together with them, not an external
consumer. Trainers advertise compatibility with
``DecentralizedTrainer.supports_batched``; cells with churn, time-varying
edges or a compression op are rejected and must run inline.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.ml.optim import EPOCH_FREE_SCHEDULES
from repro.ml.problems import QuadraticProblem
from repro.network.links import ClusterLinks, DynamicSlowdownLinks, StaticLinks
from repro.simulation.records import TrainingResult

__all__ = ["BatchedSimulator"]

# Event kinds. Heap entries are (time, sequence, kind, worker, peer,
# compute, duration) tuples; (time, sequence) is unique per cell, so the
# comparison never reaches the payload fields.
_EVAL = 0
_END_TRANSFER = 1
_COMPLETION = 2
_SERIAL_PULL = 3

# Peer draws are prefetched per (cell, worker) selection stream
# in blocks of this many variates (see the determinism contract above).
_PEER_BLOCK = 512


def _query_pair_tables(links, num_workers, nbytes, time):
    """(latency, contention-free transfer time) tables at ``time``.

    Built through the public link-model queries with the same arithmetic as
    ``CommunicationModel.comm_time`` -- ``latency + nbytes / bandwidth`` on
    scalars -- so every entry is bit-identical to the inline per-event
    value. The diagonal is never queried (self-transfers are free and the
    engine never starts one).
    """
    latency = [[0.0] * num_workers for _ in range(num_workers)]
    serial = [[0.0] * num_workers for _ in range(num_workers)]
    for a in range(num_workers):
        for b in range(num_workers):
            if a == b:
                continue
            lat = links.latency(a, b, time)
            latency[a][b] = lat
            serial[a][b] = lat + nbytes / links.bandwidth(a, b, time)
    return latency, serial


class _StaticPairTimes:
    """Link times for a plain :class:`StaticLinks` model: one table, ever."""

    __slots__ = ("_latency", "_serial")

    def __init__(self, links, num_workers, nbytes):
        self._latency, self._serial = _query_pair_tables(
            links, num_workers, nbytes, 0.0
        )

    def pair(self, a, b, time):
        return self._latency[a][b], self._serial[a][b]


class _SlowdownPairTimes:
    """Link times for :class:`DynamicSlowdownLinks`: one table per period.

    The model is a pure function of ``int(time // period_s)``, so the
    tables are rebuilt (through the public queries, at the event time) only
    when an event crosses into a new rotation interval.
    """

    __slots__ = ("_links", "_num_workers", "_nbytes", "_interval", "_latency", "_serial")

    def __init__(self, links, num_workers, nbytes):
        self._links = links
        self._num_workers = num_workers
        self._nbytes = nbytes
        self._interval = -1
        self._latency = None
        self._serial = None

    def pair(self, a, b, time):
        interval = int(time // self._links.period_s)
        if interval != self._interval:
            self._latency, self._serial = _query_pair_tables(
                self._links, self._num_workers, self._nbytes, time
            )
            self._interval = interval
        return self._latency[a][b], self._serial[a][b]


class _LivePairTimes:
    """Fallback for any other link model: query per transfer (still exact)."""

    __slots__ = ("_links", "_nbytes")

    def __init__(self, links, nbytes):
        self._links = links
        self._nbytes = nbytes

    def pair(self, a, b, time):
        lat = self._links.latency(a, b, time)
        return lat, lat + self._nbytes / self._links.bandwidth(a, b, time)


def _make_pair_times(links, num_workers, nbytes):
    if type(links) is StaticLinks or type(links) is ClusterLinks:
        # Both are time-invariant, so one table serves the whole run.
        return _StaticPairTimes(links, num_workers, nbytes)
    if type(links) is DynamicSlowdownLinks:
        return _SlowdownPairTimes(links, num_workers, nbytes)
    return _LivePairTimes(links, nbytes)


class _Cell:
    """One lockstep run's event heap plus the engine-side mirror state."""

    __slots__ = (
        "trainer",
        "row",
        "heap",
        "seq",
        "now",
        "executed",
        "result",
        "until",
        "max_events",
        "stop_flag",
        "eval_interval",
        "workers",
        "overlap",
        "models",
        "schedule",
        "lr_static",
        "neighbors",
        "neighbor_sizes",
        "selection_rngs",
        "peer_buffers",
        "peer_positions",
        "compute_times",
        "pair_times",
        "static_tables",
        "pair_latency",
        "pair_serial",
        "inbound",
        "outbound",
    )

    def __init__(self, trainer, row):
        config = trainer.config
        self.trainer = trainer
        self.row = row
        self.heap = []
        self.seq = 0
        self.now = 0.0
        self.executed = 0
        self.result = None
        self.until = config.max_sim_time
        self.max_events = config.max_events
        # The stop condition only changes when an iteration completes, so
        # it is cached here (and refreshed after each completion) rather
        # than recomputed before every event pop.
        self.stop_flag = (
            config.max_epochs is not None
            and trainer.mean_epoch() >= config.max_epochs
        )
        self.eval_interval = config.eval_interval_s
        self.workers = trainer.num_workers
        self.overlap = trainer.overlap
        self.models = [task.model for task in trainer.tasks]
        self.schedule = config.lr_schedule
        # The engine caches the rate per cell and refreshes it only after
        # each evaluation.
        self.lr_static = type(config.lr_schedule) in EPOCH_FREE_SCHEDULES
        self.neighbors = [
            [int(n) for n in cached] for cached in trainer._neighbor_cache
        ]
        self.neighbor_sizes = [len(n) for n in self.neighbors]
        self.selection_rngs = trainer._selection_rngs
        self.peer_buffers = [[] for _ in range(self.workers)]
        self.peer_positions = [0] * self.workers
        # Compute times are constant per worker (a pure function of the
        # batch size); precompute the exact per-call value.
        self.compute_times = [
            trainer.compute_time(w) for w in range(self.workers)
        ]
        self.pair_times = _make_pair_times(
            trainer.comm.links, self.workers, trainer.message_bytes
        )
        # Hot-path shortcut: index a static model's tables directly instead
        # of going through a method call per transfer.
        self.static_tables = isinstance(self.pair_times, _StaticPairTimes)
        if self.static_tables:
            self.pair_latency = self.pair_times._latency
            self.pair_serial = self.pair_times._serial
        else:
            self.pair_latency = None
            self.pair_serial = None
        self.inbound = [0] * self.workers
        self.outbound = [0] * self.workers


class _BatchState:
    """Structure-of-arrays mirror of every lockstep cell's hot state."""

    __slots__ = (
        "params",
        "velocity",
        "diag",
        "targets",
        "task_iters",
        "progress",
        "progress_sum",
        "iters_total",
        "hint",
        "mixing",
        "weight_decay",
        "momentum",
        "lr_cache",
        "cost_duration",
        "cost_compute",
        "cost_iters",
        "cost_duration_bnd",
        "cost_compute_bnd",
        "cost_epochs",
        "boundaries_seen",
        "max_epochs",
        "any_max_epochs",
        "wd_any",
        "wd_all",
        "mom_any",
        "mom_all",
        "any_noise",
        "lr_all_static",
    )

    def __init__(self, cells):
        trainers = [cell.trainer for cell in cells]
        self.params = np.stack(
            [[task.model.get_params() for task in t.tasks] for t in trainers]
        )
        self.velocity = np.stack(
            [[opt.velocity for opt in t._optimizers] for t in trainers]
        )
        self.diag = np.stack(
            [[task.model.curvature for task in t.tasks] for t in trainers]
        )
        self.targets = np.stack(
            [[task.model.target for task in t.tasks] for t in trainers]
        )
        self.task_iters = np.array(
            [[task.iterations for task in t.tasks] for t in trainers],
            dtype=np.int64,
        )
        self.progress = np.array(
            [t._progress for t in trainers], dtype=np.float64
        )
        self.progress_sum = np.array(
            [t._progress_sum for t in trainers], dtype=np.float64
        )
        self.iters_total = np.array(
            [t._iterations_total for t in trainers], dtype=np.int64
        )
        self.hint = np.array([t._epoch_hint for t in trainers], dtype=np.int64)
        self.mixing = np.array(
            [t.mixing_weight for t in trainers], dtype=np.float64
        )
        self.weight_decay = np.array(
            [t.config.sgd.weight_decay for t in trainers], dtype=np.float64
        )
        self.momentum = np.array(
            [t.config.sgd.momentum for t in trainers], dtype=np.float64
        )
        self.lr_cache = np.array(
            [t.current_lr() for t in trainers], dtype=np.float64
        )
        costs = [t.costs for t in trainers]
        self.cost_duration = np.stack([c._duration.copy() for c in costs])
        self.cost_compute = np.stack([c._compute.copy() for c in costs])
        self.cost_iters = np.stack([c._iterations.copy() for c in costs])
        self.cost_duration_bnd = np.stack(
            [c._duration_at_boundary.copy() for c in costs]
        )
        self.cost_compute_bnd = np.stack(
            [c._compute_at_boundary.copy() for c in costs]
        )
        self.cost_epochs = np.stack([c._epochs.copy() for c in costs])
        self.boundaries_seen = np.array(
            [t._epoch_boundaries_seen for t in trainers], dtype=np.int64
        )
        self.max_epochs = np.array(
            [
                float("inf") if t.config.max_epochs is None else t.config.max_epochs
                for t in trainers
            ],
            dtype=np.float64,
        )
        self.any_max_epochs = bool(np.any(np.isfinite(self.max_epochs)))
        self.wd_any = bool(np.any(self.weight_decay != 0.0))
        self.wd_all = bool(np.all(self.weight_decay != 0.0))
        self.mom_any = bool(np.any(self.momentum != 0.0))
        self.mom_all = bool(np.all(self.momentum != 0.0))
        self.any_noise = any(
            task.model.noise_std for t in trainers for task in t.tasks
        )
        self.lr_all_static = all(cell.lr_static for cell in cells)


class BatchedSimulator:
    """Advance many compatible gossip trainers, vectorizable ones in lockstep.

    Args:
        trainers: constructed-but-not-run trainers (see
            :func:`repro.experiments.harness.build_trainer`). Every trainer
            must advertise ``supports_batched``, be churn-free on a static
            edge set, and share one worker count.

    ``run()`` executes every cell to its own stopping criterion and
    returns one :class:`~repro.simulation.records.TrainingResult` per
    trainer, in input order, bit-identical to ``trainer.run()``. Until
    then a trainer that is not vectorizable is only inspected, never
    advanced: its random streams and simulator stay untouched.
    """

    def __init__(self, trainers):
        trainers = list(trainers)
        if not trainers:
            raise ValueError("BatchedSimulator needs at least one trainer")
        for trainer in trainers:
            self._validate(trainer)
        workers = {t.num_workers for t in trainers}
        if len(workers) != 1:
            raise ValueError(
                f"all batched trainers must share a worker count, got {sorted(workers)}"
            )
        self._workers = workers.pop()
        # Lockstep rows must share a model dimension to live in one array;
        # a vectorizable trainer with a different dimension than the first
        # one seen runs per-event like any non-vectorizable one (no cell).
        self._slots = []  # (trainer, its lockstep cell or None), input order
        self._cells = []
        batch_dim = None
        for trainer in trainers:
            cell = None
            if self._vectorizable(trainer):
                dim = trainer.tasks[0].model.dim
                if batch_dim is None:
                    batch_dim = dim
                if dim == batch_dim:
                    cell = _Cell(trainer, len(self._cells))
                    self._cells.append(cell)
            self._slots.append((trainer, cell))
        self._state = _BatchState(self._cells) if self._cells else None
        self._self_loops = any(
            worker in cell.neighbors[worker]
            for cell in self._cells
            for worker in range(cell.workers)
        )
        self._ran = False
        # Initial schedule, mirroring DecentralizedTrainer.run(): the
        # per-worker loops first (in worker order), then the t=0 evaluation
        # -- identical sequence numbers, hence identical tie-breaks.
        for cell in self._cells:
            for worker in range(cell.workers):
                self._start_iteration(cell, worker, 0.0)
            heapq.heappush(cell.heap, (0.0, cell.seq, _EVAL, 0, 0, 0.0, 0.0))
            cell.seq += 1

    # -- validation -----------------------------------------------------------

    @staticmethod
    def _validate(trainer):
        if not getattr(trainer, "supports_batched", False):
            raise ValueError(
                f"trainer {trainer.name!r} does not support batched execution"
            )
        for attr in (
            "_selection_rngs",
            "_neighbor_cache",
            "_optimizers",
            "mixing_weight",
            "overlap",
        ):
            if not hasattr(trainer, attr):
                raise ValueError(
                    f"trainer {trainer.name!r} advertises supports_batched but "
                    f"lacks the gossip hot-path state ({attr!r})"
                )
        if trainer.churn is not None:
            raise ValueError("batched execution does not support churn schedules")
        if trainer._edges_dynamic:
            raise ValueError(
                "batched execution does not support time-varying topologies"
            )
        if trainer.compression is not None:
            # The engine mirrors the uncompressed mixing math; advancing a
            # lossy-compressed trainer would silently skip the pulled-params
            # noise hook (the "none" op is normalized to None upstream).
            raise ValueError(
                "batched execution does not support compression ops"
            )
        sim = trainer.sim
        if sim.now != 0.0 or sim.events_processed or sim.pending or trainer.history.times:
            raise ValueError("batched trainers must be freshly constructed, not run")

    @staticmethod
    def _vectorizable(trainer):
        for task in trainer.tasks:
            if task.sampler is not None:
                return False
            if type(task.model) is not QuadraticProblem:
                return False
        return True

    # -- event generation ------------------------------------------------------

    def _begin(self, cell, worker, peer, now):
        """Mirror of ``CommunicationModel.begin_transfer`` on cell counters."""
        latency, base = cell.pair_times.pair(worker, peer, now)
        inbound = cell.inbound
        outbound = cell.outbound
        inbound[worker] += 1
        outbound[peer] += 1
        share = inbound[worker]
        if outbound[peer] > share:
            share = outbound[peer]
        return latency + (base - latency) * share

    def _start_iteration(self, cell, worker, now):
        """Mirror of ``GossipTrainer._start_iteration`` into the cell heap.

        The overlap case -- the hot path, once per completed iteration --
        is fully inlined: peer draw from the prefetched block, ``_begin``
        on the cell's counters, two pushes.
        """
        position = cell.peer_positions[worker]
        buffer = cell.peer_buffers[worker]
        if position >= len(buffer):
            buffer = (
                cell.selection_rngs[worker]
                .integers(cell.neighbor_sizes[worker], size=_PEER_BLOCK)
                .tolist()
            )
            cell.peer_buffers[worker] = buffer
            position = 0
        cell.peer_positions[worker] = position + 1
        peer = cell.neighbors[worker][buffer[position]]
        compute = cell.compute_times[worker]
        heap = cell.heap
        seq = cell.seq
        if peer == worker:
            heapq.heappush(
                heap, (now + compute, seq, _COMPLETION, worker, peer, compute, compute)
            )
            cell.seq = seq + 1
        elif cell.overlap:
            if cell.static_tables:
                latency = cell.pair_latency[worker][peer]
                base = cell.pair_serial[worker][peer]
            else:
                latency, base = cell.pair_times.pair(worker, peer, now)
            inbound = cell.inbound
            outbound = cell.outbound
            inbound[worker] += 1
            outbound[peer] += 1
            share = inbound[worker]
            if outbound[peer] > share:
                share = outbound[peer]
            network = latency + (base - latency) * share
            heapq.heappush(
                heap, (now + network, seq, _END_TRANSFER, worker, peer, 0.0, 0.0)
            )
            duration = compute if compute >= network else network
            heapq.heappush(
                heap,
                (now + duration, seq + 1, _COMPLETION, worker, peer, compute, duration),
            )
            cell.seq = seq + 2
        else:
            heapq.heappush(
                heap, (now + compute, seq, _SERIAL_PULL, worker, peer, compute, 0.0)
            )
            cell.seq = seq + 1

    def _serial_pull(self, cell, worker, peer, compute, now):
        """Mirror of ``GossipTrainer._serial_pull`` (churn-free branch)."""
        network = self._begin(cell, worker, peer, now)
        seq = cell.seq
        heapq.heappush(
            cell.heap, (now + network, seq, _END_TRANSFER, worker, peer, 0.0, 0.0)
        )
        heapq.heappush(
            cell.heap,
            (
                now + network,
                seq + 1,
                _COMPLETION,
                worker,
                peer,
                compute,
                compute + network,
            ),
        )
        cell.seq = seq + 2

    # -- completions -----------------------------------------------------------

    def _completions(self, batch):
        """One round's completions, vectorized across the batch.

        Mirror of ``GossipTrainer._complete_iteration`` (churn-free branch)
        with ``ADPSGDTrainer._apply_update`` on a diagonal quadratic.

        ``batch`` holds at most one entry per cell (one pop per cell per
        round), so every fancy index below is duplicate-free and in-place
        scatter updates are safe.
        """
        st = self._state
        count = len(batch)
        cells = [entry[0] for entry in batch]
        events = [entry[1] for entry in batch]
        rows = np.fromiter((c.row for c in cells), dtype=np.intp, count=count)
        widx = np.fromiter((e[3] for e in events), dtype=np.intp, count=count)
        pidx = np.fromiter((e[4] for e in events), dtype=np.intp, count=count)

        # current_lr(): read before the gradient draw, like the inline path.
        lr = st.lr_cache[rows]
        if not st.lr_all_static:
            for i, cell in enumerate(cells):
                if not cell.lr_static:
                    lr[i] = cell.schedule.lr(
                        float(st.progress_sum[cell.row]) / cell.workers
                    )

        # sample_loss_and_grad() on a quadratic: QuadraticProblem's own
        # curvature * diff; the discarded loss is never computed.
        x = st.params[rows, widx]
        diff = x - st.targets[rows, widx]
        grad = st.diag[rows, widx] * diff
        if st.any_noise:
            for i, cell in enumerate(cells):
                model = cell.models[events[i][3]]
                if model.noise_std:
                    grad[i] = grad[i] + model._rng.normal(
                        0.0, model.noise_std, size=grad[i].shape
                    )

        # The task progress hook (iterations, epoch progress, totals).
        st.task_iters[rows, widx] += 1
        iters = st.task_iters[rows, widx]
        new_progress = iters / st.hint[rows]
        st.progress_sum[rows] += new_progress - st.progress[rows, widx]
        st.progress[rows, widx] = new_progress
        st.iters_total[rows] += 1

        # Mixing (gradient evaluated at the pre-averaging parameters).
        mixing = st.mixing[rows]
        base = (1.0 - mixing)[:, None] * x + mixing[:, None] * st.params[rows, pidx]
        if self._self_loops:
            # A self-peer pull mixes nothing (inline takes the bare-params
            # branch); only possible if a neighbor list contains its owner.
            same = widx == pidx
            if same.any():
                base[same] = x[same]

        # SGDState.step on the mirrored velocity buffers.
        g = grad
        wd = st.weight_decay[rows]
        if st.wd_all:
            g = g + wd[:, None] * base
        elif st.wd_any:
            idx = np.nonzero(wd)[0]
            g[idx] = g[idx] + wd[idx][:, None] * base[idx]
        if st.mom_all:
            velocity = st.velocity[rows, widx]
            velocity *= st.momentum[rows][:, None]
            velocity += g
            st.velocity[rows, widx] = velocity
            g = velocity
        elif st.mom_any:
            momentum = st.momentum[rows]
            idx = np.nonzero(momentum)[0]
            ri = rows[idx]
            wi = widx[idx]
            velocity = st.velocity[ri, wi]
            velocity *= momentum[idx][:, None]
            velocity += g[idx]
            st.velocity[ri, wi] = velocity
            g[idx] = velocity
        st.params[rows, widx] = base - lr[:, None] * g

        # record_iteration(): cost tracker plus epoch-boundary bookkeeping.
        st.cost_duration[rows, widx] += np.fromiter(
            (e[6] for e in events), dtype=np.float64, count=count
        )
        st.cost_compute[rows, widx] += np.fromiter(
            (e[5] for e in events), dtype=np.float64, count=count
        )
        st.cost_iters[rows, widx] += 1
        completed = iters // st.hint[rows]
        crossed = completed > st.boundaries_seen[rows, widx]
        if crossed.any():
            for i in np.nonzero(crossed)[0]:
                row = rows[i]
                worker = widx[i]
                st.cost_epochs[row, worker] += (
                    completed[i] - st.boundaries_seen[row, worker]
                )
                st.cost_duration_bnd[row, worker] = st.cost_duration[row, worker]
                st.cost_compute_bnd[row, worker] = st.cost_compute[row, worker]
                st.boundaries_seen[row, worker] = completed[i]

        for i in range(count):
            event = events[i]
            self._start_iteration(cells[i], event[3], event[0])

        # Refresh the cached stop condition for cells whose mean epoch just
        # advanced (same float64 comparison the inline _should_stop makes).
        if st.any_max_epochs:
            means = st.progress_sum[rows] / self._workers
            hit = means >= st.max_epochs[rows]
            if hit.any():
                for i in np.nonzero(hit)[0]:
                    cells[i].stop_flag = True

    # -- evaluation and shutdown ----------------------------------------------

    def _sync_eval_state(self, cell):
        """Push the mirrored state a real ``evaluate()`` reads back in."""
        st = self._state
        trainer = cell.trainer
        params = st.params[cell.row]
        for worker, task in enumerate(trainer.tasks):
            task.model.set_params(params[worker])
        trainer._progress_sum = float(st.progress_sum[cell.row])
        trainer._iterations_total = int(st.iters_total[cell.row])

    def _sync_full_state(self, cell):
        """Write every mirrored buffer back into the trainer at shutdown."""
        st = self._state
        trainer = cell.trainer
        row = cell.row
        self._sync_eval_state(cell)
        for worker, optimizer in enumerate(trainer._optimizers):
            optimizer.velocity = st.velocity[row, worker]
        for worker, task in enumerate(trainer.tasks):
            task.iterations = int(st.task_iters[row, worker])
        trainer._progress = [float(p) for p in st.progress[row]]
        trainer._epoch_boundaries_seen = [
            int(b) for b in st.boundaries_seen[row]
        ]
        trainer._lr_dirty = True
        costs = trainer.costs
        costs._duration[:] = st.cost_duration[row]
        costs._compute[:] = st.cost_compute[row]
        costs._iterations[:] = st.cost_iters[row]
        costs._duration_at_boundary[:] = st.cost_duration_bnd[row]
        costs._compute_at_boundary[:] = st.cost_compute_bnd[row]
        costs._epochs[:] = st.cost_epochs[row]
        comm = trainer.comm
        comm._inbound = list(cell.inbound)
        comm._outbound = list(cell.outbound)

    def _evaluation(self, cell, now):
        """Mirror of ``DecentralizedTrainer._evaluation_event``."""
        trainer = cell.trainer
        self._sync_eval_state(cell)
        trainer.sim.advance_to(now)
        trainer.evaluate()
        if cell.lr_static:
            # observe_loss may have decayed a plateau schedule.
            self._state.lr_cache[cell.row] = trainer.current_lr()
        next_time = now + cell.eval_interval
        if next_time < cell.until:
            heapq.heappush(cell.heap, (next_time, cell.seq, _EVAL, 0, 0, 0.0, 0.0))
            cell.seq += 1

    def _finish(self, cell):
        self._sync_full_state(cell)
        trainer = cell.trainer
        trainer.sim.advance_to(cell.now, events=cell.executed)
        cell.result = trainer._finalize_result()

    # -- the run ---------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Events the lockstep loop has executed across its cells so far
        (a per-event cell counts on its own ``trainer.sim``)."""
        return sum(cell.executed for cell in self._cells)

    def run(self) -> list[TrainingResult]:
        """Execute every cell to its stopping criterion; results in order."""
        if self._ran:
            raise RuntimeError("BatchedSimulator.run() may only be called once")
        self._ran = True
        heappop = heapq.heappop
        live = self._cells
        while live:
            still_live = []
            keep = still_live.append
            completions = []
            evaluations = []
            for cell in live:
                # Stop checks in Simulator.run()'s exact order (and with its
                # exact clamping rules) before each pop. The stop condition
                # is the cached flag refreshed after every completion.
                # Transfer-end events are drained immediately (their whole
                # effect is two counter decrements, applied right here, so
                # inline order is preserved); the checks re-run before every
                # further pop. The round defers at the first event with
                # deferred processing.
                heap = cell.heap
                finished = False
                while True:
                    if not heap:
                        if cell.now < cell.until:
                            cell.now = cell.until
                        self._finish(cell)
                        finished = True
                        break
                    if cell.stop_flag or cell.executed >= cell.max_events:
                        self._finish(cell)
                        finished = True
                        break
                    if heap[0][0] > cell.until:
                        cell.now = cell.until
                        self._finish(cell)
                        finished = True
                        break
                    event = heappop(heap)
                    cell.now = event[0]
                    cell.executed += 1
                    kind = event[2]
                    if kind == _END_TRANSFER:
                        cell.inbound[event[3]] -= 1
                        cell.outbound[event[4]] -= 1
                        continue
                    if kind == _COMPLETION:
                        completions.append((cell, event))
                    elif kind == _SERIAL_PULL:
                        self._serial_pull(cell, event[3], event[4], event[5], event[0])
                    else:
                        evaluations.append((cell, event[0]))
                    break
                if not finished:
                    keep(cell)
            if completions:
                self._completions(completions)
            for cell, time in evaluations:
                self._evaluation(cell, time)
            live = still_live
        # Everything the engine does not vectorize runs through its own
        # per-event loop: bit-identical to inline because it *is* inline.
        return [
            trainer.run() if cell is None else cell.result
            for trainer, cell in self._slots
        ]

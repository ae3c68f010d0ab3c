"""Pluggable sweep-execution backends: inline, process pool, batched, file queue.

PR 1 made every sweep cell a picklable pure function of its spec; this
module turns "how cells get executed" into a :class:`SweepExecutor`
strategy so the same declarative grid can run

- in-process (:class:`InlineExecutor` -- no pool overhead, easiest to
  debug),
- across local processes (:class:`ProcessExecutor` -- the PR 1
  :class:`~concurrent.futures.ProcessPoolExecutor` path),
- through one structure-of-arrays engine advancing many cells in lockstep
  (:class:`BatchedExecutor` -- see :mod:`repro.simulation.batched` and
  docs/batched_execution.md), or
- across *any number of worker processes on one or many hosts* sharing a
  directory (:class:`QueueExecutor` -- the coordinator of the sweep
  service).

All four are interchangeable: cells are deterministically seeded from
their own spec and results land in the sha256-keyed
:class:`~repro.experiments.cache.ResultCache`, so ``batched == queue ==
process == inline`` bit-for-bit.

The sweep service is four modules, imported strictly in this direction:
:mod:`~repro.experiments.cache` (result storage, the atomic write) <-
:mod:`~repro.experiments.broker` (the queue directory and every cell
transition) <- :mod:`~repro.experiments.worker` (the worker loop, lease
heartbeat, registry) <- this module, which stays the one import point:
every public name of the other three is re-exported here.
"""

from __future__ import annotations

import abc
import os
import time
import uuid
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.experiments.broker import (
    MAX_LEASE_TIMEOUT_S,
    MIN_LEASE_TIMEOUT_S,
    QueueCellError,
    WorkQueue,
    _worker_id,
    check_poll_interval,
)
from repro.experiments.cache import ResultCache
from repro.experiments.worker import (
    WorkerSummary,
    _local_worker_entry,
    run_queue_worker,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweeps -> executors)
    from multiprocessing.synchronize import Event

    from repro.experiments.sweeps import SweepCell
    from repro.simulation.records import TrainingResult

__all__ = [
    "MIN_LEASE_TIMEOUT_S",
    "BatchedExecutor",
    "CellExecution",
    "InlineExecutor",
    "ProcessExecutor",
    "QueueExecutor",
    "ResultCache",
    "SweepExecutor",
    "WorkQueue",
    "WorkerSummary",
    "make_executor",
    "partition_batchable",
    "run_queue_worker",
]

#: How often the waiting coordinator prints the fleet's health line.
_STATUS_INTERVAL_S = 5.0


def _in_turn_or_pool(fn: Callable, items: Sequence, parallel: int) -> Iterator:
    """Yield ``fn(x)`` for each ``x`` of ``items``, in input order.

    ``parallel <= 1`` (or a single item) runs in this process, one item
    after another, each result yielded as it lands; larger values fan out
    across a :class:`ProcessPoolExecutor`, whose ``map`` yields in input
    order as results become available (an item is yielded once every
    earlier item has also finished).
    """
    if parallel <= 1 or len(items) <= 1:
        yield from map(fn, items)
    else:
        with ProcessPoolExecutor(max_workers=min(parallel, len(items))) as pool:
            yield from pool.map(fn, items)


# -- executor interface --------------------------------------------------------


@dataclass
class CellExecution:
    """Telemetry for one freshly executed cell."""

    result: TrainingResult
    runtime_s: float
    attempts: int = 1
    worker: str | None = None


def _execute_one(cell: SweepCell, cache_dir: str | None) -> CellExecution:
    """Execute a cell and persist it immediately.

    The cache write happens here, per finished cell, so a sweep that dies
    or is interrupted partway keeps every cell completed so far.
    """
    start = time.perf_counter()
    result = cell.execute()
    runtime = time.perf_counter() - start
    if cache_dir is not None:
        ResultCache(cache_dir).store(cell.cache_key(), result)
    return CellExecution(result=result, runtime_s=runtime, worker=_worker_id())


#: The one path a finished cell takes out of :meth:`SweepExecutor.run`:
#: ``landed(index, execution)``.
Landed = Callable[[int, CellExecution], None]


def _execute_cells(
    cells: Sequence[SweepCell],
    cache_dir: str | None,
    indexes: Sequence[int],
    landed: Landed,
    parallel: int = 0,
) -> None:
    """Execute ``cells[i]`` for each ``i`` of ``indexes`` -- in this
    process, one after another, or across ``parallel`` pool processes
    (:func:`_in_turn_or_pool`) -- handing each to ``landed`` as it lands."""
    # A partial of a top-level function pickles, as the pool needs.
    execute = partial(_execute_one, cache_dir=cache_dir)
    for index, execution in zip(indexes, _in_turn_or_pool(
            execute, [cells[index] for index in indexes], parallel)):
        landed(index, execution)


class SweepExecutor(abc.ABC):
    """Strategy for executing the cells a sweep could not serve from cache.

    :meth:`run` calls ``landed(index, execution)`` exactly once per input
    cell, from the coordinating process, as that cell finishes, and writes
    finished results into ``cache_dir`` (when given) as they complete, so
    interrupted sweeps resume.
    """

    name: str = "?"

    def default_cache_dir(self) -> str | None:
        """Backend-provided result store when the caller passes none."""
        return None

    @abc.abstractmethod
    def run(
        self, cells: Sequence[SweepCell], cache_dir: str | None, landed: Landed
    ) -> None:
        ...


class InlineExecutor(SweepExecutor):
    """Sequential in-process execution (the default)."""

    name = "inline"

    def run(
        self, cells: Sequence[SweepCell], cache_dir: str | None, landed: Landed
    ) -> None:
        _execute_cells(cells, cache_dir, range(len(cells)), landed)


class ProcessExecutor(SweepExecutor):
    """Local fan-out via :class:`ProcessPoolExecutor`."""

    name = "process"

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValueError("process backend needs max_workers >= 1")
        self.max_workers = max_workers

    def run(
        self, cells: Sequence[SweepCell], cache_dir: str | None, landed: Landed
    ) -> None:
        _execute_cells(cells, cache_dir, range(len(cells)), landed,
                       self.max_workers)


# -- the batched structure-of-arrays backend -----------------------------------


def _batch_key(cell: SweepCell) -> tuple | None:
    """The compatibility class a cell may be batched within, or ``None``.

    A cell is batchable when its trainer class opts in
    (``supports_batched``), its scenario family has no churn process, its
    scenario spec carries no time-varying topology, and no lossy
    compression op -- the four things
    :class:`~repro.simulation.batched.BatchedSimulator` rejects (the
    engine mirrors the uncompressed gossip mixing math; a compressed cell
    runs per-cell until the engine is taught the pulled-params hook).
    Unknown algorithm names fall through to the per-cell path, where
    ``create_trainer`` raises the canonical error.

    The key itself is the worker count: the engine steps one event vector
    per round, so every cell in a batch must share it. Everything else
    (scenario, workload, schedule, trainer kwargs, horizon) is per-cell
    state inside the engine and may differ freely within a batch.
    """
    from repro.algorithms.registry import TRAINER_REGISTRY
    from repro.experiments.scenarios import get_scenario_family

    trainer_cls = TRAINER_REGISTRY.get(cell.algorithm.lower())
    if trainer_cls is None or not getattr(trainer_cls, "supports_batched", False):
        return None
    if get_scenario_family(cell.scenario.kind).has_churn:
        return None
    if cell.scenario.has_dynamic_edges():
        return None
    if cell.scenario.has_compression():
        return None
    return (cell.scenario.num_workers,)


def partition_batchable(
    cells: Sequence[SweepCell],
) -> tuple[list[list[int]], list[int]]:
    """Split cell indexes into lockstep batches and per-cell fall-throughs.

    Pure function of the cell specs (no trainers are built): returns
    ``(batches, singles)`` where each batch is a list of >= 2 indexes whose
    cells share a :func:`_batch_key`, and ``singles`` collects every other
    index -- incompatible cells *and* compatibility classes of size one,
    for which the batch engine would only add overhead. Every input index
    appears exactly once across the two, so the executor's output order is
    trivially the input order.
    """
    keyed: dict[tuple, list[int]] = {}
    singles: list[int] = []
    for index, cell in enumerate(cells):
        key = _batch_key(cell)
        if key is None:
            singles.append(index)
        else:
            keyed.setdefault(key, []).append(index)
    batches: list[list[int]] = []
    for indexes in keyed.values():
        if len(indexes) >= 2:
            batches.append(indexes)
        else:
            singles.extend(indexes)
    singles.sort()
    return batches, singles


class BatchedExecutor(SweepExecutor):
    """Hand compatible cells to one SoA engine, batch by batch.

    Cells are partitioned by :func:`partition_batchable`; each batch is
    built trainer-by-trainer through the same
    :meth:`~repro.experiments.sweeps.SweepCell.build_trainer` path the
    other backends use, then run by
    :class:`~repro.simulation.batched.BatchedSimulator`, which steps the
    cells it can vectorize together and runs the rest (every MLP cell)
    through their own per-event loop. Incompatible cells (and singleton
    compatibility classes) fall through to the ordinary per-cell path, so
    any grid accepted by the other backends is accepted here -- and
    produces bit-identical results (the engine's determinism contract,
    pinned by the bit-identity suite).

    A batch's wall-clock is shared work, so its runtime telemetry is split
    evenly across the batch's cells: per-cell ``runtime_s`` stays additive
    (summing it over a sweep yields the sweep's execution time), at the
    cost of being an average rather than a per-cell measurement.
    """

    name = "batched"

    def run(
        self, cells: Sequence[SweepCell], cache_dir: str | None, landed: Landed
    ) -> None:
        from repro.simulation.batched import BatchedSimulator

        cache = ResultCache(cache_dir) if cache_dir is not None else None
        batches, singles = partition_batchable(cells)
        for batch in batches:
            start = time.perf_counter()
            trainers = [cells[index].build_trainer() for index in batch]
            results = BatchedSimulator(trainers).run()
            share = (time.perf_counter() - start) / len(batch)
            for index, result in zip(batch, results):
                if cache is not None:
                    cache.store(cells[index].cache_key(), result)
                landed(index, CellExecution(
                    result=result, runtime_s=share, worker=_worker_id()
                ))
        _execute_cells(cells, cache_dir, singles, landed)


# -- the file-queue coordinator -----------------------------------------------


class QueueExecutor(SweepExecutor):
    """Resumable, fault-tolerant fan-out through a shared queue directory.

    The coordinator enqueues every missing cell, optionally spawns
    ``num_workers`` local worker processes, and then acts as the broker's
    janitor: it reclaims stale leases, surfaces exhausted cells as errors,
    hands each cell to ``landed`` as it lands (:meth:`_drain`), and returns
    once every cell has -- whether a local worker, or a ``repro
    sweep-worker`` on another host, executed it.
    """

    name = "queue"

    def __init__(
        self,
        queue_dir: str,
        num_workers: int = 1,
        lease_timeout_s: float = 30.0,
        max_attempts: int = 3,
        poll_interval_s: float = 0.1,
        progress: Callable[[str], None] | None = None,
        lease_batch: int = 1,
    ):
        if num_workers < 0:
            raise ValueError("num_workers must be >= 0 (0 = external workers only)")
        if not MIN_LEASE_TIMEOUT_S <= lease_timeout_s <= MAX_LEASE_TIMEOUT_S:
            raise ValueError(
                f"lease_timeout_s must be finite and in [{MIN_LEASE_TIMEOUT_S}, "
                f"{MAX_LEASE_TIMEOUT_S:g}] (below that, heartbeat-counter "
                "observations race filesystem latency and healthy workers can "
                "be presumed dead; above it, a heartbeat wait overflows), got "
                f"{lease_timeout_s}"
            )
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if lease_batch < 1:
            raise ValueError("lease_batch must be >= 1")
        check_poll_interval(poll_interval_s)
        self.queue_dir = str(queue_dir)
        self.num_workers = num_workers
        self.lease_timeout_s = lease_timeout_s
        self.max_attempts = max_attempts
        self.poll_interval_s = poll_interval_s
        self.lease_batch = lease_batch
        self._progress = progress if progress is not None else (lambda message: None)

    def default_cache_dir(self) -> str | None:
        return WorkQueue(self.queue_dir).default_results_dir()

    def run(
        self, cells: Sequence[SweepCell], cache_dir: str | None, landed: Landed
    ) -> None:
        if not cells:
            return  # fully cached: no run record, no workers to spawn
        if cache_dir is None:
            cache_dir = self.default_cache_dir()
        queue = WorkQueue(self.queue_dir)
        queue.prune_retired()
        # repro-lint: allow[RPL020] -- broker run identity (run records must
        # not collide across coordinator generations), not a simulation input
        run_id = uuid.uuid4().hex
        queue.write_config(
            cache_dir=cache_dir,
            max_attempts=self.max_attempts,
            lease_timeout_s=self.lease_timeout_s,
            run_id=run_id,
            lease_batch=self.lease_batch,
        )
        keys = [cell.cache_key() for cell in cells]
        queue.clear_failures(keys)
        present = queue.present_keys(run_id)
        enqueued = sum(
            queue.enqueue(cell, present=present, run=run_id) for cell in cells
        )
        self._progress(
            f"queue backend: {enqueued} cell(s) enqueued in {self.queue_dir} "
            f"(run {run_id[:8]}), {self.num_workers} local worker(s), "
            f"lease batch {self.lease_batch}"
        )

        import multiprocessing

        # Local workers and this coordinator wake each other instead of
        # sleeping out a poll interval: a worker sets `idle` as it goes
        # idle, which ends the wait in _drain, and `stop`, set below once
        # the run is retired, ends the workers' idle wait. The files stay
        # the only record; an event only cuts a wait short.
        idle = stop = None
        if self.num_workers:
            idle, stop = multiprocessing.Event(), multiprocessing.Event()
        workers = [
            multiprocessing.Process(
                target=_local_worker_entry,
                args=(self.queue_dir, self.poll_interval_s, run_id, idle, stop),
                daemon=True,
            )
            for _ in range(self.num_workers)
        ]
        for worker in workers:
            worker.start()
        try:
            self._drain(queue, ResultCache(cache_dir), cells, keys, run_id,
                        landed, idle)
        finally:
            queue.signal_stop(run_id)
            if stop is not None:
                stop.set()
            for worker in workers:
                worker.join(timeout=30.0)
                if worker.is_alive():  # pragma: no cover - last-resort cleanup
                    worker.terminate()

    def _drain(
        self,
        queue: WorkQueue,
        cache: ResultCache,
        cells: Sequence[SweepCell],
        keys: Sequence[str],
        run_id: str,
        landed: Landed,
        idle: Event | None,
    ) -> None:
        """Poll until every cell has landed, loading each result once.

        A cell lands once its result is on disk and this run holds no task
        or lease for it. ``complete`` writes the result, then the
        telemetry, then drops the lease, so a landed cell's telemetry is on
        disk (absent only if its worker died between the two writes). The
        result is looked for before the run's tasks and leases are listed,
        so a lease dropped in between is never mistaken for a landing.

        A result that exists but cannot be unpickled (torn write survivor,
        version-skewed worker) is quarantined by ``load``; the cell goes
        back onto the queue while the workers are still up, at most
        ``max_attempts`` times, instead of aborting the sweep after the
        whole grid already ran.

        Between scans it waits up to ``poll_interval_s``: on ``idle``, the
        event its local workers ring as they go idle, so the scan after a
        worker's last completion runs at once; with no local workers (only
        external ``repro sweep-worker`` processes, which ring nothing), in
        ``time.sleep``. ``idle`` is cleared before each scan, so a ring
        that lands during a scan cuts the next wait short.
        """
        waiting: dict[str, list[int]] = {}  # key -> grid indexes, grid order
        for index, key in enumerate(keys):
            waiting.setdefault(key, []).append(index)
        cell_of = dict(zip(keys, cells))
        unreadable_rounds: Counter[str] = Counter()
        last_health = last_beat = time.monotonic()
        # Coordinator liveness: bump the run record's beats counter on the
        # same cadence workers heartbeat their leases, so live_run_ids can
        # age out a coordinator that dies without signal_stop.
        beat_interval = self.lease_timeout_s / 3.0
        while waiting:
            if idle is not None:
                idle.clear()
            on_disk = [key for key in waiting
                       if os.path.exists(cache.path(key))]
            held = queue.held_keys(run_id) if on_disk else set()
            unreadable = []
            for key in on_disk:
                if key in held:
                    continue
                result = cache.load(key)
                if result is None:
                    unreadable.append(key)
                    continue
                meta = queue.read_meta(key) or {}
                execution = CellExecution(
                    result=result,
                    # No telemetry record (worker died between result and
                    # meta writes) must read as "unmeasured" -- a
                    # fabricated 0.0 would deflate the cell_time columns;
                    # NaN is filtered out.
                    runtime_s=float(meta.get("runtime_s", float("nan"))),
                    attempts=int(meta.get("attempt", 1)),
                    worker=meta.get("worker"),
                )
                for index in waiting.pop(key):
                    landed(index, execution)
            unreadable_rounds.update(unreadable)
            exhausted = [key for key in unreadable
                         if unreadable_rounds[key] >= self.max_attempts]
            if exhausted:
                raise QueueCellError(
                    f"{len(exhausted)} result(s) stayed unreadable after "
                    f"{self.max_attempts} collection round(s): "
                    + ", ".join(cell_of[key].label() for key in exhausted)
                )
            if unreadable:
                present = queue.present_keys(run_id)
                for key in unreadable:
                    queue.enqueue(cell_of[key], present=present, run=run_id)
            if not waiting:
                return
            failed = [key for key in queue.failed_keys() if key in waiting]
            if failed:
                details = []
                for key in failed:
                    failure = queue.read_failure(key)
                    details.append(
                        f"{failure.get('label') or cell_of[key].label()}: "
                        f"{failure.get('error')} "
                        f"(after {failure.get('attempts')} attempt(s))"
                    )
                raise QueueCellError(
                    f"{len(failed)} sweep cell(s) exhausted their retry "
                    "budget -- " + "; ".join(details)
                )
            queue.reclaim_stale(self.lease_timeout_s, self.max_attempts)
            now = time.monotonic()
            if now - last_beat >= beat_interval:
                last_beat = now
                queue.heartbeat_run(run_id)
            if now - last_health >= _STATUS_INTERVAL_S:
                last_health = now
                from repro.experiments.reporting import format_worker_health

                health = format_worker_health(queue.registry_records())
                if health:
                    done = len(keys) - sum(map(len, waiting.values()))
                    self._progress(
                        f"{done}/{len(keys)} cell(s) done; " + health
                    )
            if idle is None:
                time.sleep(self.poll_interval_s)
            else:
                idle.wait(self.poll_interval_s)


def make_executor(
    backend: str,
    parallel: int = 0,
    queue_dir: str | None = None,
    num_queue_workers: int | None = None,
    lease_timeout_s: float | None = None,
    max_attempts: int | None = None,
    progress: Callable[[str], None] | None = None,
    lease_batch: int | None = None,
) -> SweepExecutor:
    """Build the executor named by ``backend`` (the CLI's ``--backend``).

    A queue setting left at ``None`` takes :class:`QueueExecutor`'s
    default."""
    if backend == "inline":
        return InlineExecutor()
    if backend == "batched":
        return BatchedExecutor()
    if backend == "process":
        # An explicit --parallel is honored exactly (1 = one cell at a
        # time); only an unspecified count falls back to 2 so that asking
        # for the process backend fans out at all.
        return ProcessExecutor(max_workers=parallel if parallel >= 1 else 2)
    if backend == "queue":
        if queue_dir is None:
            raise ValueError("the queue backend requires a queue directory")
        settings = dict(num_workers=num_queue_workers,
                        lease_timeout_s=lease_timeout_s,
                        max_attempts=max_attempts, lease_batch=lease_batch)
        return QueueExecutor(
            queue_dir, progress=progress,
            **{name: value for name, value in settings.items()
               if value is not None},
        )
    raise ValueError(
        f"unknown sweep backend {backend!r}; valid: "
        "['batched', 'inline', 'process', 'queue']"
    )

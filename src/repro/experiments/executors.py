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
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.experiments.broker import (
    MIN_LEASE_TIMEOUT_S,
    QueueCellError,
    WorkQueue,
    _worker_id,
)
from repro.experiments.cache import ResultCache
from repro.experiments.worker import (
    WorkerSummary,
    _local_worker_entry,
    run_queue_worker,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweeps -> executors)
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


class SweepExecutor(abc.ABC):
    """Strategy for executing the cells a sweep could not serve from cache.

    Implementations must return one :class:`CellExecution` per input cell,
    in input order, and must write finished results into ``cache_dir``
    (when given) as they complete, so interrupted sweeps resume.
    """

    name: str = "?"
    _result_listener: Callable[[int, CellExecution], None] | None = None

    def default_cache_dir(self) -> str | None:
        """Backend-provided result store when the caller passes none."""
        return None

    def set_result_listener(
        self, listener: Callable[[int, CellExecution], None] | None
    ) -> None:
        """Stream completed cells out of :meth:`run` as they land.

        ``listener(index, execution)`` fires at most once per input index,
        from the coordinating process, before :meth:`run` returns. It is a
        *progress* channel -- the authoritative results are still the
        returned list, and callers must not assume every index streams
        (a backend is free to only notify at the end).
        """
        self._result_listener = listener

    def _notify(self, index: int, execution: CellExecution) -> None:
        if self._result_listener is not None:
            self._result_listener(index, execution)

    def _execute_cells(
        self,
        cells: Sequence[SweepCell],
        cache_dir: str | None,
        indexes: Sequence[int],
        parallel: int = 0,
    ) -> list[CellExecution]:
        """Execute ``cells[i]`` for each ``i`` of ``indexes`` -- in this
        process, one after another, or across ``parallel`` pool processes
        (:func:`_in_turn_or_pool`) -- announcing each as it lands."""
        # A partial of a top-level function pickles, as the pool needs.
        execute = partial(_execute_one, cache_dir=cache_dir)
        executions = []
        for index, execution in zip(indexes, _in_turn_or_pool(
                execute, [cells[index] for index in indexes], parallel)):
            self._notify(index, execution)
            executions.append(execution)
        return executions

    @abc.abstractmethod
    def run(
        self, cells: Sequence[SweepCell], cache_dir: str | None
    ) -> list[CellExecution]:
        ...


class InlineExecutor(SweepExecutor):
    """Sequential in-process execution (the default)."""

    name = "inline"

    def run(
        self, cells: Sequence[SweepCell], cache_dir: str | None
    ) -> list[CellExecution]:
        return self._execute_cells(cells, cache_dir, range(len(cells)))


class ProcessExecutor(SweepExecutor):
    """Local fan-out via :class:`ProcessPoolExecutor`."""

    name = "process"

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValueError("process backend needs max_workers >= 1")
        self.max_workers = max_workers

    def run(
        self, cells: Sequence[SweepCell], cache_dir: str | None
    ) -> list[CellExecution]:
        return self._execute_cells(
            cells, cache_dir, range(len(cells)), self.max_workers
        )


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
        self, cells: Sequence[SweepCell], cache_dir: str | None
    ) -> list[CellExecution]:
        from repro.simulation.batched import BatchedSimulator

        cache = ResultCache(cache_dir) if cache_dir is not None else None
        batches, singles = partition_batchable(cells)
        executions: list[CellExecution | None] = [None] * len(cells)
        for batch in batches:
            start = time.perf_counter()
            trainers = [cells[index].build_trainer() for index in batch]
            results = BatchedSimulator(trainers).run()
            share = (time.perf_counter() - start) / len(batch)
            for index, result in zip(batch, results):
                if cache is not None:
                    cache.store(cells[index].cache_key(), result)
                executions[index] = CellExecution(
                    result=result, runtime_s=share, worker=_worker_id()
                )
                self._notify(index, executions[index])
        for index, execution in zip(
            singles, self._execute_cells(cells, cache_dir, singles)
        ):
            executions[index] = execution
        return executions  # type: ignore[return-value]


# -- the file-queue coordinator -----------------------------------------------


class QueueExecutor(SweepExecutor):
    """Resumable, fault-tolerant fan-out through a shared queue directory.

    The coordinator enqueues every missing cell, optionally spawns
    ``num_workers`` local worker processes, and then acts as the broker's
    janitor: it reclaims stale leases, surfaces exhausted cells as errors,
    and returns once every cell's result is in the cache -- whether a local
    worker, or a ``repro sweep-worker`` on another host, produced it.
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
        if lease_timeout_s < MIN_LEASE_TIMEOUT_S:
            raise ValueError(
                f"lease_timeout_s must be >= {MIN_LEASE_TIMEOUT_S} "
                "(below that, heartbeat-counter observations race filesystem "
                "latency and healthy workers can be presumed dead)"
            )
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if lease_batch < 1:
            raise ValueError("lease_batch must be >= 1")
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
        self, cells: Sequence[SweepCell], cache_dir: str | None
    ) -> list[CellExecution]:
        if cache_dir is None:
            cache_dir = self.default_cache_dir()
        queue = WorkQueue(self.queue_dir)
        queue.clear_stop()
        cache = ResultCache(cache_dir)
        # repro-lint: allow[RPL020] -- broker run identity (stop markers must
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
        # A re-run is an explicit request to retry: clear terminal failure
        # records for the cells of *this* sweep so they become claimable
        # again (other sweeps' failures in a shared queue stay put).
        for key in keys:
            try:
                os.unlink(os.path.join(queue.failed_dir, f"{key}.err"))
            except FileNotFoundError:
                pass
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

        workers = [
            multiprocessing.Process(
                target=_local_worker_entry,
                args=(self.queue_dir, self.poll_interval_s, run_id),
                daemon=True,
            )
            for _ in range(self.num_workers)
        ]
        for worker in workers:
            worker.start()
        try:
            # Collect while the workers are still alive: a result file that
            # exists but cannot be unpickled (torn write survivor, version-
            # skewed worker) is quarantined by load(), and the cell must go
            # back onto the queue for re-execution rather than abort the
            # sweep after the whole grid already ran.
            notified: set[int] = set()
            for _ in range(self.max_attempts):
                self._wait_for_results(queue, cache, cells, keys, notified,
                                       run_id)
                executions, unreadable = self._collect(queue, cache, cells, keys)
                if not unreadable:
                    for index, execution in enumerate(executions):
                        if index not in notified:
                            notified.add(index)
                            self._notify(index, execution)
                    return executions
                present = queue.present_keys(run_id)
                for index in unreadable:
                    notified.discard(index)  # its re-execution streams anew
                    queue.enqueue(cells[index], present=present, run=run_id)
            raise QueueCellError(
                f"{len(unreadable)} result(s) stayed unreadable after "
                f"{self.max_attempts} collection round(s): "
                + ", ".join(cells[i].label() for i in unreadable)
            )
        finally:
            queue.signal_stop(run_id)
            for worker in workers:
                worker.join(timeout=30.0)
                if worker.is_alive():  # pragma: no cover - last-resort cleanup
                    worker.terminate()

    def _wait_for_results(
        self,
        queue: WorkQueue,
        cache: ResultCache,
        cells: Sequence[SweepCell],
        keys: Sequence[str],
        notified: set[int],
        run_id: str,
    ) -> None:
        labels = {key: cell.label() for key, cell in zip(keys, cells)}
        index_of = {key: index for index, key in enumerate(keys)}
        missing = set(keys)
        last_health = time.monotonic()
        # Coordinator liveness: bump the run record's beats counter on the
        # same cadence workers heartbeat their leases, so live_run_ids can
        # age out a coordinator that dies without signal_stop.
        beat_interval = self.lease_timeout_s / 3.0
        last_beat = time.monotonic()
        while missing:
            arrived = {key for key in missing
                       if os.path.exists(cache.path(key))}
            missing -= arrived
            # Stream each arrival exactly once, through a non-destructive
            # peek: the wait loop must never quarantine (move aside) a file
            # it is simultaneously using as its own completion signal. An
            # unreadable arrival streams nothing; the collection pass deals
            # with it.
            if self._result_listener is not None:
                for key in sorted(arrived, key=index_of.__getitem__):
                    index = index_of[key]
                    if index in notified:
                        continue
                    result = cache.peek(key)
                    if result is None:
                        continue
                    notified.add(index)
                    self._notify(index, self._execution(queue, key, result))
            if not missing:
                return
            failed = [key for key in queue.failed_keys() if key in missing]
            if failed:
                details = []
                for key in failed:
                    failure = queue.read_failure(key)
                    details.append(
                        f"{failure.get('label') or labels[key]}: "
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
                    self._progress(
                        f"{len(keys) - len(missing)}/{len(keys)} cell(s) done; "
                        + health
                    )
            time.sleep(self.poll_interval_s)

    def _collect(
        self,
        queue: WorkQueue,
        cache: ResultCache,
        cells: Sequence[SweepCell],
        keys: Sequence[str],
    ) -> tuple[list[CellExecution], list[int]]:
        """Load every result; indexes whose entry was quarantined on load
        (file existed, bytes unreadable) come back for re-execution."""
        executions: list[CellExecution | None] = []
        unreadable: list[int] = []
        for index, key in enumerate(keys):
            result = cache.load(key)
            if result is None:
                unreadable.append(index)
                executions.append(None)
                continue
            executions.append(self._execution(queue, key, result))
        return executions, unreadable

    @staticmethod
    def _execution(
        queue: WorkQueue, key: str, result: TrainingResult
    ) -> CellExecution:
        """A stored result plus the telemetry its worker recorded."""
        meta = queue.read_meta(key) or {}
        return CellExecution(
            result=result,
            # No telemetry record (worker died between result and meta
            # writes) must read as "unmeasured" -- a fabricated 0.0
            # would deflate the cell_time columns; NaN is filtered out.
            runtime_s=float(meta.get("runtime_s", float("nan"))),
            attempts=int(meta.get("attempt", 1)),
            worker=meta.get("worker"),
        )


def make_executor(
    backend: str,
    parallel: int = 0,
    queue_dir: str | None = None,
    num_queue_workers: int = 1,
    lease_timeout_s: float = 30.0,
    max_attempts: int = 3,
    progress: Callable[[str], None] | None = None,
    lease_batch: int = 1,
) -> SweepExecutor:
    """Build the executor named by ``backend`` (the CLI's ``--backend``)."""
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
        return QueueExecutor(
            queue_dir,
            num_workers=num_queue_workers,
            lease_timeout_s=lease_timeout_s,
            max_attempts=max_attempts,
            progress=progress,
            lease_batch=lease_batch,
        )
    raise ValueError(f"unknown sweep backend {backend!r}")
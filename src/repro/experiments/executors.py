"""Pluggable sweep-execution backends: inline, process pool, and file queue.

PR 1 made every sweep cell a picklable pure function of its spec; this
module turns "how cells get executed" into a :class:`SweepExecutor`
strategy so the same declarative grid can run

- in-process (:class:`InlineExecutor` -- no pool overhead, easiest to
  debug),
- across local processes (:class:`ProcessExecutor` -- the PR 1
  :class:`~concurrent.futures.ProcessPoolExecutor` path), or
- across *any number of worker processes on one or many hosts* sharing a
  directory (:class:`QueueExecutor` -- a file-based work broker), or
- through one structure-of-arrays engine advancing many cells in lockstep
  (:class:`BatchedExecutor` -- see :mod:`repro.simulation.batched` and
  docs/batched_execution.md).

All four are interchangeable: cells are deterministically seeded from
their own spec and results land in the sha256-keyed :class:`ResultCache`,
so ``batched == queue == process == inline`` bit-for-bit.

The file-queue broker (:class:`WorkQueue`) needs nothing but a shared
POSIX directory -- no server, no sockets. Its one primitive is the atomic
``os.rename``:

- **enqueue**: the coordinator writes each missing cell to
  ``tasks/<key>.a1.task`` (temp file + rename, so readers never observe a
  partial spec) and broker settings to ``queue.json``;
- **claim**: a worker renames ``tasks/<key>.a<n>.task`` to
  ``leases/<key>.a<n>.lease``; rename succeeds for exactly one claimant,
  which is the whole mutual-exclusion story;
- **complete**: the worker stores the result through the cache's
  temp+rename write, records timing telemetry in ``meta/<key>.json``, and
  deletes its lease;
- **reclaim**: a lease grows by one heartbeat byte while its cell
  executes; if a worker dies, the byte counter freezes, and once any
  observer has watched an unchanged counter for a full lease timeout it
  renames the lease back into ``tasks/`` with the attempt counter
  bumped -- a killed worker costs one retry, never a lost cell. The
  counter lives *inside* the file, so staleness never compares one
  host's wall clock against another host's mtime (NFS clock skew and
  coarse mtime granularity cannot spuriously reclaim a live lease);
- **fail**: a cell whose retry budget is exhausted moves to
  ``failed/<key>.err`` (error text + provenance) where the coordinator
  surfaces it as a hard error;
- **quarantine**: a corrupt/truncated result file is moved to
  ``quarantine/`` (never deleted -- it is forensic evidence) and the cell
  re-executes.

Because results are idempotent (bit-identical regardless of which worker
executes a cell, enforced by the determinism test suite), the races left
open by this design -- e.g. a presumed-dead worker completing after its
lease was reclaimed -- are benign: both writers store the same bytes.

The long-lived service layer on top of the broker adds:

- a **worker registry** (``registry/<worker_id>.json``): every worker
  heartbeats a health record (host, pid, current cell, cells completed,
  beat counter) that ``repro sweep`` progress output and
  ``repro sweep-status`` surface;
- **batch leases**: a worker claims up to ``lease_batch`` cells per
  directory scan (one rename each, but one scan amortized across the
  batch), so sub-second cells stop paying a scan per cell;
- **priority + fair-share scheduling**: task filenames carry a priority
  (estimated cell cost -- slowest first, so stragglers start early) and a
  run id; a worker round-robins across the runs sharing the queue
  directory, so two coordinators' sweeps interleave instead of queueing
  behind each other, and their task files can never collide;
- **run records** (``runs/<run_id>.json``): each coordinator registers
  its sweep and deactivates it on exit, so one coordinator's STOP marker
  never turns away workers that another coordinator still needs.
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import pickle
import socket
import tempfile
import threading
import time
import uuid
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    "parallel_map",
    "partition_batchable",
    "run_queue_worker",
]

#: Floor on ``--lease-timeout-s``. The heartbeat appends a counter byte
#: every ``timeout / 3`` seconds and staleness requires the counter to sit
#: unchanged across a full timeout window; below ~1s the beat interval
#: approaches filesystem latency on shared mounts and a healthy worker's
#: lease could look frozen between two observations.
MIN_LEASE_TIMEOUT_S = 1.0


def _atomic_write(directory: str, path: str, mode: str, write: Callable) -> None:
    """Temp file + :func:`os.replace`: concurrent readers of ``path`` never
    observe a partial write. The single home of the broker's one crash-safety
    primitive (results, task specs, and JSON records all go through here)."""
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as handle:
            write(handle)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def parallel_map(fn: Callable, items: Sequence, parallel: int = 0) -> list:
    """``[fn(x) for x in items]``, optionally fanned out across processes.

    ``parallel <= 1`` runs in-process (no pool overhead, easiest to debug);
    larger values use a :class:`ProcessPoolExecutor`. ``fn`` and every item
    must be picklable for the parallel path. Result order always matches
    input order, so both paths are interchangeable.
    """
    items = list(items)
    if parallel <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(parallel, len(items))) as pool:
        return list(pool.map(fn, items))


# -- result storage ------------------------------------------------------------


class ResultCache:
    """Pickle-per-cell on-disk cache keyed by the cell's config hash.

    Writes go through a temp file + :func:`os.replace`, so concurrent sweep
    processes sharing a directory can never observe a half-written entry.
    A corrupt or truncated entry is *quarantined* on load -- moved aside to
    ``<directory>/quarantine/`` for inspection -- and reported as a miss,
    so the cell simply re-executes.
    """

    QUARANTINE_SUBDIR = "quarantine"

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def quarantine_dir(self) -> str:
        return os.path.join(self.directory, self.QUARANTINE_SUBDIR)

    def load(self, key: str) -> TrainingResult | None:
        try:
            with open(self.path(key), "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as error:
            # Unpickling corrupt bytes can raise nearly anything (torn
            # write, version skew): TypeError, ValueError, KeyError, ...
            # -- every non-missing failure means "unusable entry", so
            # quarantine it with the error recorded alongside and
            # re-execute rather than crash the sweep.
            self._quarantine(key, error)
            return None

    def _quarantine(self, key: str, error: BaseException) -> None:
        """Move a corrupt entry aside (keep it for forensics, retry never
        sees it) and record why next to it. Concurrent quarantiners race
        benignly: one rename wins, the others find the file gone."""
        os.makedirs(self.quarantine_dir(), exist_ok=True)
        destination = os.path.join(
            self.quarantine_dir(), f"{key}.{os.getpid()}.pkl"
        )
        try:
            os.replace(self.path(key), destination)
        except FileNotFoundError:
            return
        try:
            with open(f"{destination}.reason.txt", "w",
                      encoding="utf-8") as handle:
                handle.write(f"{type(error).__name__}: {error}\n")
        except OSError:
            pass  # forensics only; the quarantine itself already succeeded

    def peek(self, key: str) -> TrainingResult | None:
        """:meth:`load` without the quarantine side effect.

        The streaming wait loop peeks at results as they land; it must
        never move a file aside mid-poll (an in-progress arrival would be
        destroyed and the coordinator's existence checks would never see
        it), so unreadable bytes simply read as "not here yet" and the
        destructive :meth:`load` in the final collection pass stays the
        only quarantiner. Best-effort all the way down: *any* read or
        unpickle failure -- corrupt bytes raise arbitrary exception types
        -- is a miss, never an error out of the wait loop.
        """
        try:
            with open(self.path(key), "rb") as handle:
                return pickle.load(handle)
        # repro-lint: allow[RPL040] -- a peek is documented best-effort and
        # side-effect free: corrupt bytes raise arbitrary exception types
        # and must read as "not here yet"; load() is the reporting path
        # (it quarantines the entry with the error recorded alongside)
        except Exception:
            return None

    def store(self, key: str, result: TrainingResult) -> None:
        _atomic_write(
            self.directory, self.path(key), "wb",
            lambda handle: pickle.dump(result, handle),
        )

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory) if name.endswith(".pkl"))


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


def _execute_payload(payload: tuple[SweepCell, str | None]) -> CellExecution:
    """Top-level worker function (must be picklable for the process pool)."""
    return _execute_one(*payload)


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

    def _execute_in_turn(
        self,
        cells: Sequence[SweepCell],
        cache_dir: str | None,
        indexes: Iterable[int],
    ) -> list[CellExecution]:
        """Execute ``cells[i]`` for each ``i`` of ``indexes`` in this
        process, one after another, announcing each as it lands."""
        executions = []
        for index in indexes:
            execution = _execute_one(cells[index], cache_dir)
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
        return self._execute_in_turn(cells, cache_dir, range(len(cells)))


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
        if self.max_workers <= 1 or len(cells) <= 1:
            return self._execute_in_turn(cells, cache_dir, range(len(cells)))
        payloads = [(cell, cache_dir) for cell in cells]
        executions = []
        with ProcessPoolExecutor(
            max_workers=min(self.max_workers, len(payloads))
        ) as pool:
            # pool.map yields in input order as results become available,
            # so the stream observes cells in grid order (a cell is
            # announced once every earlier cell has also finished).
            for index, execution in enumerate(pool.map(_execute_payload, payloads)):
                self._notify(index, execution)
                executions.append(execution)
        return executions


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
            singles, self._execute_in_turn(cells, cache_dir, singles)
        ):
            executions[index] = execution
        return executions  # type: ignore[return-value]


# -- the file-queue broker -----------------------------------------------------


class QueueCellError(RuntimeError):
    """A cell exhausted its retry budget (error text from ``failed/``)."""


def _worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _poll_jitter(worker_id: str) -> float:
    """A worker's fixed poll-phase offset in ``[0, 1)``.

    Derived from the worker id by hashing -- fully deterministic (no
    entropy reads, so the broker stays inside the repro-lint RPL020
    contract) yet spread ~uniformly across a fleet, so N workers polling
    the same queue directory scan ``tasks/`` out of phase instead of in
    lockstep (the thundering-herd fix).
    """
    digest = hashlib.sha256(worker_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def _poll_delay(
    base_s: float, jitter: float, idle_polls: int, *, empty_but_leased: bool
) -> float:
    """How long an idle worker sleeps before rescanning the queue.

    ``base * (0.5 + jitter)`` de-synchronizes the fleet; consecutive idle
    polls back off exponentially (capped at 8x) so a drained-but-open
    queue is not rescanned at full rate forever. When the queue is
    *empty-but-leased* -- nothing claimable, peers still executing -- the
    cap applies immediately: rescans can only discover a reclaim or a
    retry, both of which arrive on lease-timeout timescales.
    """
    backoff = 8 if empty_but_leased else min(2 ** max(0, idle_polls - 1), 8)
    return base_s * (0.5 + jitter) * backoff


@dataclass
class _TaskName:
    """Parsed broker filename stem.

    Two generations of the format co-exist:

    - ``<sha256-key>.a<attempt>`` -- the PR 5 batch-broker name, still
      written for run-less enqueues and still parsed (a queue directory
      with in-flight tasks survives a coordinator upgrade);
    - ``<sha256-key>.p<priority:08d>.r<run>.a<attempt>`` -- the service
      name: ``priority`` is the estimated cell cost (higher = claimed
      first, so the slowest cells start earliest) and ``run`` namespaces
      the task to one coordinator's sweep, so two coordinators sharing a
      queue directory can never collide on a filename and fair-share
      scheduling can tell their tasks apart.

    The key is a hex digest, so the ``.p``/``.r``/``.a`` markers can
    never occur inside it and parsing is unambiguous.
    """

    key: str
    attempt: int
    run: str = ""
    priority: int = 0

    #: Priorities are fixed-width in the filename (sortable as text).
    MAX_PRIORITY = 99_999_999

    @classmethod
    def parse(cls, filename: str) -> _TaskName | None:
        stem, _, _ = filename.rpartition(".")
        head, _, attempt = stem.rpartition(".a")
        if not head or not attempt.isdigit():
            return None
        key, run, priority = head, "", 0
        body, run_sep, run_part = head.rpartition(".r")
        if run_sep:
            prio_head, prio_sep, prio_part = body.rpartition(".p")
            if prio_sep and prio_head and prio_part.isdigit():
                key, run, priority = prio_head, run_part, int(prio_part)
        return cls(key=key, attempt=int(attempt), run=run, priority=priority)

    def stem(self) -> str:
        if not self.run:
            return f"{self.key}.a{self.attempt}"
        return (f"{self.key}.p{self.priority:08d}.r{self.run}"
                f".a{self.attempt}")

    def with_attempt(self, attempt: int) -> _TaskName:
        return _TaskName(key=self.key, attempt=attempt, run=self.run,
                         priority=self.priority)


@dataclass
class ClaimedTask:
    """A lease this process currently owns."""

    name: _TaskName
    lease_path: str
    cell: SweepCell


class WorkQueue:
    """Rename-based file work broker over a shared directory.

    Layout under ``queue_dir`` (see docs/distributed_sweeps.md)::

        queue.json   broker settings (retry budget, lease timeout, results)
        tasks/       claimable cells:   <key>[.p<prio>.r<run>].a<n>.task
        leases/      in-flight cells:   same stem, .lease (task bytes plus
                     one appended heartbeat byte per beat)
        failed/      exhausted cells:   <key>.err               (JSON)
        meta/        per-cell telemetry <key>.json              (JSON)
        runs/        one record per coordinator sweep: <run_id>.json with
                     that sweep's settings and an ``active`` flag
        registry/    worker health records: <worker_id>.json
        results/     default ResultCache directory (sha256-keyed pickles)

    Every transition is a single atomic rename, so any number of workers on
    any number of hosts (sharing the directory, e.g. over NFS) coordinate
    without locks: exactly one claimant wins each task file.
    """

    CONFIG_NAME = "queue.json"

    def __init__(self, queue_dir: str):
        self.queue_dir = str(queue_dir)
        self.tasks_dir = os.path.join(self.queue_dir, "tasks")
        self.leases_dir = os.path.join(self.queue_dir, "leases")
        self.failed_dir = os.path.join(self.queue_dir, "failed")
        self.meta_dir = os.path.join(self.queue_dir, "meta")
        self.runs_dir = os.path.join(self.queue_dir, "runs")
        self.registry_dir = os.path.join(self.queue_dir, "registry")
        for directory in (self.tasks_dir, self.leases_dir, self.failed_dir,
                          self.meta_dir, self.runs_dir, self.registry_dir):
            os.makedirs(directory, exist_ok=True)
        # Lease-staleness observations: stem -> (heartbeat counter = file
        # size, monotonic time that counter was first seen). Per-instance
        # on purpose -- staleness is "unchanged across MY observation
        # window", which never compares clocks across processes or hosts.
        self._lease_observed: dict[str, tuple[int, float]] = {}
        # Same observation contract for coordinator liveness: run_id ->
        # (run-record beats counter, monotonic time first seen).
        self._run_observed: dict[str, tuple[int, float]] = {}

    # -- configuration ---------------------------------------------------------

    @property
    def config_path(self) -> str:
        return os.path.join(self.queue_dir, self.CONFIG_NAME)

    def write_config(
        self,
        *,
        cache_dir: str,
        max_attempts: int,
        lease_timeout_s: float,
        run_id: str,
        lease_batch: int = 1,
    ) -> None:
        """Publish broker settings so bare ``sweep-worker`` processes need
        nothing beyond the queue directory itself. ``run_id`` scopes the
        STOP marker to this sweep generation, so a reused queue directory's
        leftover STOP can never turn away newly joining workers.

        Also registers ``runs/<run_id>.json`` (the same settings plus
        ``active: true``): workers resolve per-task settings through the
        task's run record, so two coordinators with different cache
        directories or retry budgets coexist in one queue directory, and
        the STOP marker only ends workers once *no* run is still active.
        """
        settings = {
            "cache_dir": os.path.abspath(cache_dir),
            "max_attempts": int(max_attempts),
            "lease_timeout_s": float(lease_timeout_s),
            "lease_batch": int(lease_batch),
            "run_id": run_id,
        }
        self._atomic_write_json(self.config_path, settings)
        self._atomic_write_json(self._run_path(run_id), {
            **settings,
            "active": True,
            "coordinator": _worker_id(),
            "beats": 0,
        })

    def read_config(self) -> dict | None:
        try:
            with open(self.config_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def _run_path(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, f"{run_id}.json")

    def run_settings(self, run_id: str) -> dict | None:
        """The settings record a coordinator registered for ``run_id``."""
        if not run_id:
            return None
        try:
            with open(self._run_path(run_id), encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def list_runs(self) -> list[dict]:
        try:
            entries = sorted(os.listdir(self.runs_dir))
        except FileNotFoundError:
            return []
        runs = []
        for entry in entries:
            if entry.endswith(".json"):
                record = self.run_settings(entry[:-len(".json")])
                if record is not None:
                    runs.append(record)
        return runs

    def active_run_ids(self) -> list[str]:
        return [record["run_id"] for record in self.list_runs()
                if record.get("active")]

    def heartbeat_run(self, run_id: str) -> None:
        """Bump this run's coordinator liveness counter.

        The coordinator calls this on its lease-heartbeat cadence while it
        waits for results, so observers (see :meth:`live_run_ids`) can
        tell a run whose coordinator is alive from one whose coordinator
        died without :meth:`signal_stop` -- by counter movement, never by
        clocks, the same contract as lease staleness.
        """
        record = self.run_settings(run_id)
        if record is None:
            return
        record["beats"] = int(record.get("beats", 0)) + 1
        self._atomic_write_json(self._run_path(run_id), record)

    def live_run_ids(self, lease_timeout_s: float) -> list[str]:
        """Active runs whose coordinator still shows signs of life.

        A run counts as live while any of its tasks are pending or leased
        (someone must drain them regardless of the coordinator's fate), or
        while its ``beats`` counter keeps moving within the run's own
        lease-timeout window on this observer's monotonic clock (the
        frozen-counter contract of :meth:`reclaim_stale`; the passed
        timeout applies only to records without one). A coordinator killed
        without :meth:`signal_stop` therefore stops blocking the STOP
        marker one observation window after its sweep drains, instead of
        pinning a shared fleet to the full drain timeout forever.
        """
        now = time.monotonic()
        tasked = {name.run for name in self.pending_tasks()}
        tasked.update(name.run for name in self.active_leases())
        live = []
        seen: set[str] = set()
        for record in self.list_runs():
            if not record.get("active"):
                continue
            run_id = record["run_id"]
            seen.add(run_id)
            if run_id in tasked:
                # Outstanding work restarts the observation window: only a
                # drained run may age out on a frozen coordinator.
                self._run_observed.pop(run_id, None)
                live.append(run_id)
                continue
            counter = int(record.get("beats", 0))
            observed = self._run_observed.get(run_id)
            if observed is None or observed[0] != counter:
                self._run_observed[run_id] = (counter, now)
                live.append(run_id)
                continue
            timeout_s = float(record.get("lease_timeout_s", lease_timeout_s))
            if now - observed[1] <= timeout_s:
                live.append(run_id)
        for run_id in list(self._run_observed):
            if run_id not in seen:
                del self._run_observed[run_id]
        return live

    def default_results_dir(self) -> str:
        return os.path.join(self.queue_dir, "results")

    def _atomic_write_json(self, path: str, payload: dict) -> None:
        _atomic_write(
            self.queue_dir, path, "w",
            lambda handle: json.dump(payload, handle, indent=2, sort_keys=True),
        )

    # -- state listings --------------------------------------------------------

    def _stems(self, directory: str, suffix: str) -> list[_TaskName]:
        names = []
        try:
            entries = sorted(os.listdir(directory))
        except FileNotFoundError:
            return []
        for entry in entries:
            if entry.endswith(suffix):
                parsed = _TaskName.parse(entry)
                if parsed is not None:
                    names.append(parsed)
        return names

    def pending_tasks(self) -> list[_TaskName]:
        return self._stems(self.tasks_dir, ".task")

    def active_leases(self) -> list[_TaskName]:
        return self._stems(self.leases_dir, ".lease")

    def failed_keys(self) -> list[str]:
        try:
            entries = sorted(os.listdir(self.failed_dir))
        except FileNotFoundError:
            return []
        return [entry[:-len(".err")] for entry in entries if entry.endswith(".err")]

    def read_failure(self, key: str) -> dict:
        with open(os.path.join(self.failed_dir, f"{key}.err"),
                  encoding="utf-8") as handle:
            return json.load(handle)

    def read_meta(self, key: str) -> dict | None:
        try:
            with open(os.path.join(self.meta_dir, f"{key}.json"),
                      encoding="utf-8") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    # -- transitions -----------------------------------------------------------

    def enqueue(
        self,
        cell: SweepCell,
        attempt: int = 1,
        present: set[str] | None = None,
        run: str = "",
        priority: int | None = None,
    ) -> bool:
        """Make a cell claimable unless it is already queued, leased, or
        terminally failed. Returns whether a task file was created.

        ``present`` is an optional snapshot of already-present keys (from
        :meth:`present_keys`): bulk enqueues pass it so an N-cell grid costs
        one directory scan instead of N (the snapshot is kept current as
        cells are added).

        ``run`` namespaces the task to one coordinator's sweep;
        ``priority`` defaults to the cell's estimated cost (higher =
        claimed first), so a run's slowest cells start earliest and never
        become the lone straggler at the end of the drain."""
        key = cell.cache_key()
        if present is not None:
            if key in present:
                return False
        elif key in self.present_keys(run):
            return False
        if priority is None:
            priority = 0
            if run:
                estimate = getattr(cell, "estimated_cost", None)
                if estimate is not None:
                    priority = int(estimate())
        priority = max(0, min(int(priority), _TaskName.MAX_PRIORITY))
        name = _TaskName(key=key, attempt=attempt, run=run, priority=priority)
        _atomic_write(
            self.queue_dir,
            os.path.join(self.tasks_dir, f"{name.stem()}.task"),
            "wb",
            lambda handle: pickle.dump(cell, handle),
        )
        if present is not None:
            present.add(key)
        return True

    def present_keys(self, run: str | None = None) -> set[str]:
        """Keys currently queued, leased, or terminally failed.

        With a ``run``, only that run's tasks and leases count as present:
        coordinators dedupe within their own sweep, but a second
        coordinator sharing the directory still enqueues its own copy of a
        cell another run already carries -- its results may live in a
        different cache directory, and duplicate execution is benign
        (results are idempotent, and workers skip cells whose result
        already exists). Terminal failures are global either way.
        """
        names = list(self.pending_tasks()) + list(self.active_leases())
        if run is not None:
            names = [name for name in names if name.run == run]
        keys = {name.key for name in names}
        keys.update(self.failed_keys())
        return keys

    def _claim_order(self, rotation: str | None = None) -> list[_TaskName]:
        """Pending tasks in the order a worker should try to claim them.

        Within one run: highest priority (estimated cost) first, key as
        the deterministic tiebreak. Across runs: round-robin, one task per
        run per rank, cycling the sorted run ids starting just *after*
        ``rotation`` (the run this worker last claimed from) -- so a
        worker alternates between concurrent sweeps instead of draining
        whichever run sorts first, and no run starves while another has
        pending work. Pure function of the directory listing plus the
        caller's rotation cursor: no coordination state on disk.
        """
        by_run: dict[str, list[_TaskName]] = {}
        for name in self.pending_tasks():
            by_run.setdefault(name.run, []).append(name)
        for names in by_run.values():
            names.sort(key=lambda name: (-name.priority, name.key, name.attempt))
        runs = sorted(by_run)
        if rotation is not None and runs:
            start = sum(1 for run in runs if run <= rotation)
            runs = runs[start:] + runs[:start]
        order: list[_TaskName] = []
        rank = 0
        remaining = True
        while remaining:
            remaining = False
            for run in runs:
                names = by_run[run]
                if rank < len(names):
                    order.append(names[rank])
                    remaining = True
            rank += 1
        return order

    def claim(self) -> ClaimedTask | None:
        """Atomically claim one pending task (the scheduling order's first
        task that this process wins the rename race for)."""
        claims = self.claim_batch(1)
        return claims[0] if claims else None

    def claim_batch(
        self, limit: int, rotation: str | None = None
    ) -> list[ClaimedTask]:
        """Claim up to ``limit`` tasks from one directory scan.

        Each claim is still an individual atomic rename (mutual exclusion
        is per task, unchanged), but the scan cost -- the dominant
        per-claim overhead for sub-second cells on shared filesystems --
        is paid once per batch instead of once per cell. Losing a rename
        race simply moves on to the next candidate, so concurrent batch
        claimants partition the scan between them.
        """
        claims: list[ClaimedTask] = []
        for name in self._claim_order(rotation):
            if len(claims) >= limit:
                break
            task_path = os.path.join(self.tasks_dir, f"{name.stem()}.task")
            lease_path = os.path.join(self.leases_dir, f"{name.stem()}.lease")
            try:
                os.rename(task_path, lease_path)
            except FileNotFoundError:
                continue  # somebody else won this one
            try:
                with open(lease_path, "rb") as handle:
                    cell = pickle.load(handle)
            except Exception as error:
                # Unpickling foreign bytes can raise nearly anything
                # (torn write, version-skewed worker). An unreadable task
                # spec can never execute: fail it terminally rather than
                # letting it crash worker after worker.
                self._record_failure(
                    name, f"unreadable task spec: {error!r}", cell_label=None
                )
                os.unlink(lease_path)
                continue
            claims.append(ClaimedTask(name=name, lease_path=lease_path, cell=cell))
        return claims

    def requeue(self, claim: ClaimedTask) -> None:
        """Return an unexecuted claim to the task pool without spending an
        attempt (e.g. a batch tail the worker will not get to)."""
        try:
            os.rename(
                claim.lease_path,
                os.path.join(self.tasks_dir, f"{claim.name.stem()}.task"),
            )
        except FileNotFoundError:
            pass  # reclaimed from under us; its copy is already queued

    def complete(
        self,
        claim: ClaimedTask,
        cache: ResultCache,
        result: TrainingResult,
        runtime_s: float,
        seq: int | None = None,
    ) -> None:
        """Result first (atomic), telemetry second, lease last -- a crash
        between any two steps leaves the queue recoverable.

        ``seq`` is the executing worker's completion counter; together
        with ``run`` it lets observers reconstruct per-worker execution
        order (the fair-share interleaving CI asserts on) without any
        cross-host clock."""
        key = claim.name.key
        cache.store(key, result)
        self._atomic_write_json(os.path.join(self.meta_dir, f"{key}.json"), {
            "cache_key": key,
            "label": claim.cell.label(),
            "runtime_s": runtime_s,
            "attempt": claim.name.attempt,
            "run": claim.name.run,
            "seq": seq,
            "worker": _worker_id(),
        })
        self._drop_lease(claim.lease_path)

    def release_without_execution(self, claim: ClaimedTask) -> None:
        """Drop a lease whose result already exists (another worker finished
        the cell between enqueue and this claim)."""
        self._drop_lease(claim.lease_path)

    def fail(self, claim: ClaimedTask, error_text: str, max_attempts: int) -> bool:
        """Requeue a failed attempt, or fail terminally once the budget is
        spent. Returns True when the cell will be retried."""
        if claim.name.attempt < max_attempts:
            retry = claim.name.with_attempt(claim.name.attempt + 1)
            try:
                os.rename(
                    claim.lease_path,
                    os.path.join(self.tasks_dir, f"{retry.stem()}.task"),
                )
            except FileNotFoundError:
                pass  # lease was reclaimed from under us; its copy retries
            return True
        self._record_failure(claim.name, error_text, claim.cell.label())
        self._drop_lease(claim.lease_path)
        return False

    def _record_failure(
        self, name: _TaskName, error_text: str, cell_label: str | None
    ) -> None:
        self._atomic_write_json(
            os.path.join(self.failed_dir, f"{name.key}.err"),
            {
                "cache_key": name.key,
                "label": cell_label,
                "attempts": name.attempt,
                "error": error_text,
                "worker": _worker_id(),
            },
        )

    def reclaim_stale(self, lease_timeout_s: float, max_attempts: int) -> int:
        """Return stale leases (their worker is presumed dead) to the task
        pool, spending one attempt. Safe to call from any process; rename
        races resolve to one winner.

        Staleness is a *frozen heartbeat counter*, not a file age: the
        executing worker appends one byte to its lease per beat, so the
        counter is the file size, and a lease is stale only once this
        observer has watched the same size for a full ``lease_timeout_s``
        on its own monotonic clock. No wall clock and no mtime is ever
        consulted -- clock skew between hosts sharing the directory and
        coarse (1s) mtime granularity on network filesystems can neither
        spuriously reclaim a live lease nor hide a dead one. The cost is
        one observation latency: a fresh :class:`WorkQueue` instance needs
        two looks, ``lease_timeout_s`` apart, before its first reclaim.

        Each lease is judged by *its own run's* staleness window and retry
        budget, resolved through ``runs/<run_id>.json`` exactly as the
        executing worker resolves them for heartbeating; the passed values
        apply only to run-less (pre-service) tasks and runs whose record
        is gone. In a multi-tenant directory a coordinator with a short
        lease timeout therefore can never judge another run's slower
        heartbeat as frozen, reclaim its live lease, and burn the wrong
        retry budget to a terminal (directory-global) failure.
        """
        reclaimed = 0
        now = time.monotonic()
        seen: set[str] = set()
        run_windows: dict[str, tuple[float, int]] = {}
        for name in self.active_leases():
            window = run_windows.get(name.run)
            if window is None:
                record = self.run_settings(name.run) or {}
                window = (
                    float(record.get("lease_timeout_s", lease_timeout_s)),
                    int(record.get("max_attempts", max_attempts)),
                )
                run_windows[name.run] = window
            timeout_s, attempt_budget = window
            stem = name.stem()
            seen.add(stem)
            lease_path = os.path.join(self.leases_dir, f"{stem}.lease")
            try:
                counter = os.path.getsize(lease_path)
            except OSError:
                self._lease_observed.pop(stem, None)
                continue
            observed = self._lease_observed.get(stem)
            if observed is None or observed[0] != counter:
                self._lease_observed[stem] = (counter, now)
                continue
            if now - observed[1] <= timeout_s:
                continue
            stale_for = now - observed[1]
            if name.attempt >= attempt_budget:
                try:
                    with open(lease_path, "rb") as handle:
                        label = pickle.load(handle).label()
                # repro-lint: allow[RPL040] -- unpickling foreign bytes can
                # raise nearly anything (torn write, version-skewed worker)
                # and the file can vanish mid-read; nothing is swallowed:
                # the terminal-failure record written just below still
                # identifies the cell by key
                except Exception:
                    label = None
                self._record_failure(
                    name,
                    f"worker heartbeat frozen for {stale_for:.1f}s on final "
                    f"attempt {name.attempt}/{attempt_budget} "
                    "(worker presumed dead)",
                    label,
                )
                self._drop_lease(lease_path)
                self._lease_observed.pop(stem, None)
                reclaimed += 1
                continue
            retry = name.with_attempt(name.attempt + 1)
            try:
                os.rename(
                    lease_path,
                    os.path.join(self.tasks_dir, f"{retry.stem()}.task"),
                )
            except FileNotFoundError:
                continue  # another reclaimer (or the worker itself) won
            self._lease_observed.pop(stem, None)
            reclaimed += 1
        for stem in list(self._lease_observed):
            if stem not in seen:
                del self._lease_observed[stem]
        return reclaimed

    def _drop_lease(self, lease_path: str) -> None:
        try:
            os.unlink(lease_path)
        except FileNotFoundError:
            pass  # reclaimed from under us; results are idempotent

    # -- shutdown --------------------------------------------------------------

    @property
    def stop_path(self) -> str:
        return os.path.join(self.queue_dir, "STOP")

    def signal_stop(self, run_id: str) -> None:
        """Tell every worker (local or remote) of this sweep generation to
        drain and exit: workers honor the marker once nothing is claimable
        *and no registered run is still active*, so in-flight and
        still-queued cells finish first and one coordinator finishing can
        never pull a shared fleet out from under another coordinator's
        half-drained sweep. Deactivates this run's record first."""
        record = self.run_settings(run_id)
        if record is not None:
            record["active"] = False
            self._atomic_write_json(self._run_path(run_id), record)
        self._atomic_write_json(
            self.stop_path, {"run_id": run_id, "worker": _worker_id()}
        )

    def stop_marker_id(self) -> str | None:
        """The run_id the STOP marker is tagged with (``None`` = no marker,
        ``"<unreadable>"`` = a marker whose payload cannot be parsed)."""
        try:
            with open(self.stop_path, encoding="utf-8") as handle:
                marker = json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            return "<unreadable>"
        return str(marker.get("run_id"))

    def clear_stop(self) -> None:
        """Remove the STOP marker and garbage-collect retired records.

        Called by every coordinator before it enqueues, so each sweep
        generation starts clean: run records that are inactive *and* have
        no pending or leased tasks left (their settings govern nothing
        anymore), and registry records of exited workers, are pruned here
        rather than accumulating forever in a long-lived queue directory.
        Records of runs that still carry tasks -- a crashed sweep's
        leftovers -- are kept, since workers resolve those tasks' settings
        through them.
        """
        try:
            os.unlink(self.stop_path)
        except FileNotFoundError:
            pass
        tasked = {name.run for name in self.pending_tasks()}
        tasked.update(name.run for name in self.active_leases())
        for record in self.list_runs():
            if record.get("active") or record["run_id"] in tasked:
                continue
            try:
                os.unlink(self._run_path(record["run_id"]))
            except OSError:
                pass
        for record in self.registry_records():
            if record.get("status") != "exited":
                continue
            try:
                os.unlink(os.path.join(self.registry_dir,
                                       f"{record['worker']}.json"))
            except OSError:
                pass

    # -- observability ---------------------------------------------------------

    def registry_records(self) -> list[dict]:
        """Every worker health record in ``registry/``, sorted by worker."""
        try:
            entries = sorted(os.listdir(self.registry_dir))
        except FileNotFoundError:
            return []
        records = []
        for entry in entries:
            if not entry.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.registry_dir, entry),
                          encoding="utf-8") as handle:
                    records.append(json.load(handle))
            except (OSError, json.JSONDecodeError):
                continue  # record mid-rewrite; the next scan sees it
        return records

    def completed_count(self) -> int:
        """Cells with telemetry records (== completed at least once)."""
        try:
            return sum(1 for entry in os.listdir(self.meta_dir)
                       if entry.endswith(".json"))
        except FileNotFoundError:
            return 0

    def status_snapshot(self) -> dict:
        """One JSON-ready view of the whole service: queue depths per run,
        registered runs, worker health, and the STOP marker. This is what
        ``repro sweep-status`` prints."""
        pending = self.pending_tasks()
        leases = self.active_leases()
        per_run: dict[str, dict[str, int]] = {}
        for name in pending:
            per_run.setdefault(name.run, {"pending": 0, "leased": 0})
            per_run[name.run]["pending"] += 1
        for name in leases:
            per_run.setdefault(name.run, {"pending": 0, "leased": 0})
            per_run[name.run]["leased"] += 1
        runs = []
        for record in self.list_runs():
            depths = per_run.get(record["run_id"], {"pending": 0, "leased": 0})
            runs.append({
                "run_id": record["run_id"],
                "active": bool(record.get("active")),
                "coordinator": record.get("coordinator"),
                **depths,
            })
        known = {run["run_id"] for run in runs}
        for run_id, depths in sorted(per_run.items()):
            if run_id not in known:  # pre-service tasks carry no run record
                runs.append({"run_id": run_id, "active": None,
                             "coordinator": None, **depths})
        return {
            "queue_dir": os.path.abspath(self.queue_dir),
            "pending": len(pending),
            "leased": len(leases),
            "completed": self.completed_count(),
            "failed": self.failed_keys(),
            "stop": self.stop_marker_id(),
            "runs": runs,
            "workers": self.registry_records(),
        }


def _append_heartbeat_byte(path: str) -> bool:
    """Append one counter byte to ``path`` -- only if it still exists.

    Opened without ``O_CREAT`` on purpose: completion or a reclaimer may
    remove the lease at any moment, and an ``open(path, "ab")`` racing
    that removal would silently *recreate* it as a ghost lease holding
    nothing but heartbeat bytes -- unpicklable, so once reclaimed and
    re-claimed it would be recorded as a bogus terminal failure for a
    cell that actually completed. Without ``O_CREAT`` the open itself
    fails once the file is gone, closing the check-then-append race at
    the filesystem. Returns whether a byte was written.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
    except OSError:
        return False  # lease completed or reclaimed; never recreate it
    try:
        os.write(fd, b"\0")
    except OSError:
        return False
    finally:
        os.close(fd)
    return True


class _LeaseHeartbeat:
    """Append one counter byte per beat to each lease while its cell
    executes, so a *live* worker's lease counter never freezes no matter
    how long the cell runs; only a dead worker's counter stops moving.

    Appending (rather than touching mtime) keeps the liveness signal
    inside the file where every observer reads the same value -- there is
    no cross-host clock or mtime-granularity dependence. The appended
    bytes are invisible to consumers: ``pickle.load`` stops at its STOP
    opcode and never reads the tail, so a reclaimed lease re-pickles
    cleanly after its rename back into ``tasks/``.

    One heartbeat serves a whole claimed batch (``lease_paths``); a path
    that disappears (completed, or reclaimed from under us) is skipped,
    never recreated. ``on_beat`` lets the worker piggyback its registry
    heartbeat on the same cadence.
    """

    def __init__(
        self,
        lease_paths: str | Sequence[str],
        interval_s: float,
        on_beat: Callable[[], None] | None = None,
    ):
        if isinstance(lease_paths, str):
            lease_paths = [lease_paths]
        self._lease_paths = list(lease_paths)
        self._interval_s = max(0.05, interval_s)
        self._on_beat = on_beat
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def __enter__(self) -> _LeaseHeartbeat:
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _beat(self) -> None:
        while not self._stop.wait(self._interval_s):
            for path in self._lease_paths:
                _append_heartbeat_byte(path)
            if self._on_beat is not None:
                self._on_beat()


class _WorkerRegistry:
    """This worker's health record in ``registry/<worker_id>.json``.

    The record is the service's observability surface: host, pid, what
    the worker is doing right now, how much it has done, and a beat
    counter bumped by the lease heartbeat. Thread-safe because the
    heartbeat thread calls :meth:`beat` while the worker's main thread
    updates status. ``last_seen`` is a wall-clock timestamp for *human*
    display only -- liveness decisions always use the ``beats`` counter
    (same contract as lease staleness: counters, never clocks).
    """

    def __init__(self, queue: WorkQueue, worker: str):
        self._queue = queue
        self._lock = threading.Lock()
        self._path = os.path.join(queue.registry_dir, f"{worker}.json")
        self._record = {
            "worker": worker,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "status": "starting",
            "current_cell": None,
            "cells_completed": 0,
            "cells_failed": 0,
            "beats": 0,
            "last_seen": None,
        }

    def update(self, **fields: object) -> None:
        with self._lock:
            self._record.update(fields)
            self._write()

    def beat(self) -> None:
        with self._lock:
            self._record["beats"] += 1
            self._write()

    def note_completed(self) -> None:
        with self._lock:
            self._record["cells_completed"] += 1
            self._record["current_cell"] = None
            self._write()

    def note_failed(self) -> None:
        with self._lock:
            self._record["cells_failed"] += 1
            self._record["current_cell"] = None
            self._write()

    def _write(self) -> None:
        # repro-lint: allow[RPL020] -- human-facing "last seen" timestamp in
        # a worker health record; broker observability, never a simulation
        # input (liveness logic reads the beats counter instead)
        self._record["last_seen"] = time.time()
        self._queue._atomic_write_json(self._path, dict(self._record))


@dataclass
class WorkerSummary:
    """What one ``run_queue_worker`` invocation did."""

    worker: str
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    reclaimed: int = 0

    def as_dict(self) -> dict:
        return {
            "worker": self.worker,
            "executed": self.executed,
            "skipped": self.skipped,
            "failed": self.failed,
            "reclaimed": self.reclaimed,
        }


def run_queue_worker(
    queue_dir: str,
    poll_interval_s: float = 0.2,
    drain_timeout_s: float = 10.0,
    max_cells: int | None = None,
    progress: Callable[[str], None] | None = None,
    lease_batch: int | None = None,
    coordinator_run: str | None = None,
) -> WorkerSummary:
    """Join a queue directory and execute cells until it drains.

    The worker loop: claim up to ``lease_batch`` tasks in one scan
    (default: the coordinator's published setting); cells whose result
    already exists drop their lease (``skipped``); the rest execute
    sequentially under one lease heartbeat and complete or fail
    individually. With nothing claimable the worker reclaims stale
    leases, then polls with deterministic per-worker jittered backoff; it
    exits after ``drain_timeout_s`` with no claimable work, when the
    coordinator writes the ``STOP`` marker (and no registered run is
    still active), or after ``max_cells`` executions. Any number of these
    may run concurrently against the same directory, on any number of
    hosts; each maintains a health record in ``registry/``.

    Broker settings (result-cache path, retry budget, lease timeout) come
    from ``queue.json``, written by the coordinator at enqueue time --
    per-task, the task's own run record takes precedence, so tasks from
    different coordinators land in their own cache directories. A worker
    that starts *before* any coordinator simply polls until the config
    appears or the drain timeout expires.

    ``coordinator_run`` is for :class:`QueueExecutor` alone: the run id of
    the coordinator that spawned this worker, whose STOP marker is live
    even when it is already on disk at startup (any other marker found at
    startup is a previous sweep's leftover and is ignored).
    """
    queue = WorkQueue(queue_dir)
    summary = WorkerSummary(worker=_worker_id())
    say = progress if progress is not None else (lambda message: None)
    registry = _WorkerRegistry(queue, summary.worker)
    jitter = _poll_jitter(summary.worker)
    idle_since = time.monotonic()
    idle_polls = 0
    rotation: str | None = None  # run id this worker last claimed from
    # A STOP marker already present at startup is *stale* by definition: it
    # belongs to a sweep that finished before this worker existed (reused
    # queue directory). Only a marker that appears -- or changes run_id --
    # during this worker's lifetime ends it; a worker joining ahead of the
    # next coordinator just polls until tasks appear or it drains out.
    # The exception is the marker of the coordinator that spawned this
    # worker: that coordinator cleared STOP before it started, so its marker
    # is live however early it lands (a fully cached or very short sweep
    # writes it before the worker process is up).
    startup_stop = queue.stop_marker_id()
    if startup_stop == coordinator_run:
        startup_stop = None
    registry.update(status="idle")
    try:
        while True:
            remaining = None
            if max_cells is not None:
                remaining = max_cells - summary.executed
                if remaining <= 0:
                    break
            config = queue.read_config()
            if config is None:
                # Queue not published yet (worker raced ahead of the
                # coordinator): wait for it like any other idle period.
                if time.monotonic() - idle_since > drain_timeout_s:
                    break
                idle_polls += 1
                time.sleep(_poll_delay(poll_interval_s, jitter, idle_polls,
                                       empty_but_leased=False))
                continue
            limit = (lease_batch if lease_batch is not None
                     else int(config.get("lease_batch", 1)))
            limit = max(1, limit)
            if remaining is not None:
                # Never claim more than this invocation may still execute:
                # a capped worker must not strand a batch tail in leases.
                limit = min(limit, remaining)
            claims = queue.claim_batch(limit, rotation=rotation)
            if not claims:
                reclaimed = queue.reclaim_stale(
                    config["lease_timeout_s"], config["max_attempts"]
                )
                if reclaimed:
                    # A dead peer's cell just became claimable again: that is
                    # new work, not idleness -- never drain out on top of it.
                    summary.reclaimed += reclaimed
                    idle_since = time.monotonic()
                    idle_polls = 0
                    continue
                # STOP is a drain-then-exit signal, checked only with nothing
                # claimable, only for markers newer than this worker (see
                # startup_stop above), and only once no registered run is
                # still *live*: in-flight and still-queued cells always
                # finish first, a stale marker can never turn away a freshly
                # joined worker, and one coordinator's exit never strands a
                # concurrent coordinator's half-drained sweep. Liveness (not
                # the raw active flag) keeps a coordinator that died without
                # signal_stop from disabling STOP forever.
                marker = queue.stop_marker_id()
                if (marker is not None and marker != startup_stop
                        and not queue.live_run_ids(config["lease_timeout_s"])):
                    break
                if time.monotonic() - idle_since > drain_timeout_s:
                    break
                idle_polls += 1
                time.sleep(_poll_delay(
                    poll_interval_s, jitter, idle_polls,
                    empty_but_leased=bool(queue.active_leases()),
                ))
                continue
            idle_since = time.monotonic()
            idle_polls = 0
            rotation = claims[-1].name.run
            # Re-read the config after a successful claim: the claimed tasks
            # may belong to a sweep generation newer than the snapshot above
            # (coordinator replaces queue.json *before* enqueueing). Each
            # task then resolves its own run's settings, falling back to the
            # shared config for run-less (pre-service) tasks.
            config = queue.read_config() or config
            settings = [queue.run_settings(claim.name.run) or config
                        for claim in claims]
            heartbeat_interval = min(
                cfg["lease_timeout_s"] for cfg in settings
            ) / 3.0
            with _LeaseHeartbeat(
                [claim.lease_path for claim in claims],
                heartbeat_interval,
                on_beat=registry.beat,
            ):
                for claim, cfg in zip(claims, settings):
                    cache = ResultCache(cfg["cache_dir"])
                    if cache.load(claim.name.key) is not None:
                        queue.release_without_execution(claim)
                        summary.skipped += 1
                        continue
                    say(f"executing {claim.cell.label()} "
                        f"(attempt {claim.name.attempt}/{cfg['max_attempts']})")
                    registry.update(status="executing",
                                    current_cell=claim.cell.label())
                    try:
                        start = time.perf_counter()
                        result = claim.cell.execute()
                        runtime = time.perf_counter() - start
                    except Exception as error:
                        summary.failed += 1
                        retrying = queue.fail(
                            claim, f"{type(error).__name__}: {error}",
                            cfg["max_attempts"],
                        )
                        registry.note_failed()
                        say(f"cell {claim.cell.label()} failed "
                            f"({'will retry' if retrying else 'retry budget exhausted'}): "
                            f"{error}")
                        continue
                    summary.executed += 1
                    queue.complete(claim, cache, result, runtime,
                                   seq=summary.executed)
                    registry.note_completed()
            registry.update(status="idle", current_cell=None)
    finally:
        registry.update(status="exited", current_cell=None,
                        cells_skipped=summary.skipped,
                        cells_reclaimed=summary.reclaimed)
    return summary


def _local_worker_entry(
    queue_dir: str, poll_interval_s: float, run_id: str
) -> None:
    """Top-level target for coordinator-spawned local worker processes."""
    # Local workers live as long as the coordinator keeps the queue open:
    # the coordinator's STOP marker, not a drain timeout, ends them.
    run_queue_worker(
        queue_dir,
        poll_interval_s=poll_interval_s,
        drain_timeout_s=float("inf"),
        coordinator_run=run_id,
    )


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
        status_interval_s: float = 5.0,
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
        self.status_interval_s = status_interval_s
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
                    meta = queue.read_meta(key) or {}
                    notified.add(index)
                    self._notify(index, CellExecution(
                        result=result,
                        runtime_s=float(meta.get("runtime_s", float("nan"))),
                        attempts=int(meta.get("attempt", 1)),
                        worker=meta.get("worker"),
                    ))
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
            if now - last_health >= self.status_interval_s:
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
            meta = queue.read_meta(key) or {}
            executions.append(CellExecution(
                result=result,
                # No telemetry record (worker died between result and meta
                # writes) must read as "unmeasured" -- a fabricated 0.0
                # would deflate the cell_time columns; NaN is filtered out.
                runtime_s=float(meta.get("runtime_s", float("nan"))),
                attempts=int(meta.get("attempt", 1)),
                worker=meta.get("worker"),
            ))
        return executions, unreadable


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

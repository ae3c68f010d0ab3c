"""The file-queue broker: :class:`WorkQueue`, a shared directory as a work queue.

The broker needs nothing but a shared POSIX directory -- no server, no
sockets, no lock files. Its one primitive is the atomic ``os.rename``, and
the life of a cell is a walk through the directory layout (drawn in
:class:`WorkQueue`) by these transitions, each written down once here:

- **enqueue**: the coordinator writes each missing cell to
  ``tasks/<key>.p<prio>.r<run>.a1.task`` (temp file + rename, so readers
  never observe a partial spec) and broker settings to ``queue.json`` and
  ``runs/<run>.json``;
- **claim**: a worker renames the task into ``leases/`` (same stem,
  ``.lease``); rename succeeds for exactly one claimant, which is the whole
  mutual-exclusion story. A worker claims up to ``lease_batch`` cells per
  directory scan (one rename each, one scan amortized across the batch);
- **complete**: the worker stores the result through the cache's
  temp+rename write, records timing telemetry in ``meta/<key>.json``, and
  deletes its lease;
- **return** (:meth:`WorkQueue._return_lease`, the only lease -> task
  rename): an unexecuted batch tail goes back at the same attempt
  (``requeue``), a failed attempt and a dead worker's lease go back with
  the attempt counter bumped (``fail``, ``reclaim_stale``);
- **reclaim**: a lease grows by one heartbeat byte while its cell
  executes; if a worker dies, the byte counter freezes, and once any
  observer has watched an unchanged counter for a full lease timeout
  (:class:`_FrozenCounters`) it returns the lease -- a killed worker costs
  one retry, never a lost cell. The counter lives *inside* the file, so
  staleness never compares one host's wall clock against another host's
  mtime (NFS clock skew and coarse mtime granularity cannot spuriously
  reclaim a live lease);
- **fail**: a cell whose retry budget is exhausted moves to
  ``failed/<key>.err`` (error text + provenance) where the coordinator
  surfaces it as a hard error.

Because results are idempotent (bit-identical regardless of which worker
executes a cell, enforced by the determinism test suite), the races left
open by this design -- e.g. a presumed-dead worker completing after its
lease was reclaimed -- are benign: both writers store the same bytes.

Scheduling and multi-tenancy ride on the task filename (:class:`_TaskName`):
a priority (estimated cell cost -- slowest first, so stragglers start
early) and a run id; a worker round-robins across the runs sharing the
queue directory, so two coordinators' sweeps interleave instead of queueing
behind each other, and their task files can never collide. Each coordinator
registers its sweep in ``runs/<run_id>.json`` and deactivates it on exit, so
one coordinator's STOP marker never turns away workers that another
coordinator still needs.

Imports :mod:`repro.experiments.cache` only; the worker loop that drives
these transitions is :mod:`repro.experiments.worker`, the coordinator is
:class:`repro.experiments.executors.QueueExecutor`.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import socket
import time
from collections.abc import Collection
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.experiments.cache import ResultCache, _atomic_write

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweeps -> executors)
    from repro.experiments.sweeps import SweepCell
    from repro.simulation.records import TrainingResult

__all__ = ["MIN_LEASE_TIMEOUT_S", "ClaimedTask", "QueueCellError", "WorkQueue"]

#: Floor on ``--lease-timeout-s``. The heartbeat appends a counter byte
#: every ``timeout / 3`` seconds and staleness requires the counter to sit
#: unchanged across a full timeout window; below ~1s the beat interval
#: approaches filesystem latency on shared mounts and a healthy worker's
#: lease could look frozen between two observations.
MIN_LEASE_TIMEOUT_S = 1.0

#: The run-id alphabet. A run id is part of every task filename, between
#: ``.r`` and ``.a<attempt>``: a ``.`` inside it would make the name parse
#: back as a different (key, run) pair, a path separator would leave the
#: directory.
_RUN_ID = re.compile(r"[A-Za-z0-9_-]+")


class QueueCellError(RuntimeError):
    """A cell exhausted its retry budget (error text from ``failed/``)."""


def _worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _checked_run_id(run_id: str) -> str:
    if not _RUN_ID.fullmatch(run_id):
        raise ValueError(
            f"run id {run_id!r} must match [A-Za-z0-9_-]+ (it is embedded "
            "in task filenames)"
        )
    return run_id


def _read_json(path: str, unreadable: dict | None = None) -> dict | None:
    """The JSON record at ``path``: ``None`` when there is no such file,
    ``unreadable`` when its bytes do not parse."""
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError:
        return unreadable


def _names(directory: str, suffix: str) -> list[str]:
    """Sorted entries of ``directory`` that end in ``suffix``."""
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    return sorted(entry for entry in entries if entry.endswith(suffix))


class _FrozenCounters:
    """The broker's one staleness watch: has a counter sat unchanged for a
    full window *on this observer's monotonic clock*?

    Liveness signals are counters that only a live process moves (a lease's
    heartbeat-byte count, a run record's ``beats``); an observer remembers
    ``key -> (counter, monotonic time it first saw that value)`` and calls
    the owner dead only after watching the same value for the owner's whole
    timeout. No wall clock and no mtime is ever consulted -- clock skew
    between hosts sharing the directory and coarse (1s) mtime granularity
    on network filesystems can neither spuriously expire a live owner nor
    hide a dead one. The cost is one observation latency: a fresh observer
    needs two looks, a timeout apart, before its first verdict.
    """

    def __init__(self) -> None:
        self._observed: dict[str, tuple[int, float]] = {}

    def unchanged_for(self, key: str, counter: int, now: float) -> float:
        """Seconds this observer has watched ``counter`` unchanged under
        ``key``; a first look or a moved counter restarts the window (0.0)."""
        observed = self._observed.get(key)
        if observed is None or observed[0] != counter:
            self._observed[key] = (counter, now)
            return 0.0
        return now - observed[1]

    def forget(self, key: str) -> None:
        self._observed.pop(key, None)

    def retain(self, keys: Collection[str]) -> None:
        """Drop every observation whose key is no longer in ``keys``."""
        self._observed = {key: seen for key, seen in self._observed.items()
                          if key in keys}


@dataclass
class _TaskName:
    """Parsed broker filename stem
    ``<sha256-key>.p<priority:08d>.r<run>.a<attempt>``.

    ``priority`` is the estimated cell cost (higher = claimed first, so the
    slowest cells start earliest) and ``run`` namespaces the task to one
    coordinator's sweep, so two coordinators sharing a queue directory can
    never collide on a filename and fair-share scheduling can tell their
    tasks apart.

    The key is a hex digest and a run id contains no ``.``
    (:data:`_RUN_ID`), so the ``.p``/``.r``/``.a`` markers can never occur
    inside either and parsing is unambiguous.
    """

    key: str
    attempt: int
    run: str
    priority: int = 0

    #: Priorities are fixed-width in the filename (sortable as text).
    MAX_PRIORITY = 99_999_999

    @classmethod
    def parse(cls, filename: str) -> _TaskName | None:
        stem, _, _ = filename.rpartition(".")
        head, _, attempt = stem.rpartition(".a")
        body, _, run = head.rpartition(".r")
        key, _, priority = body.rpartition(".p")
        if not (key and run and priority.isdigit() and attempt.isdigit()):
            return None
        return cls(key=key, attempt=int(attempt), run=run,
                   priority=int(priority))

    def stem(self) -> str:
        return (f"{self.key}.p{self.priority:08d}.r{self.run}"
                f".a{self.attempt}")

    def with_attempt(self, attempt: int) -> _TaskName:
        return replace(self, attempt=attempt)


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
        tasks/       claimable cells:   <key>.p<prio>.r<run>.a<n>.task
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
        # Per-instance on purpose -- staleness is "unchanged across MY
        # observation window", which never compares clocks across processes
        # or hosts. Keys: lease stems (counter = lease file size) and run
        # ids (counter = the run record's coordinator ``beats``).
        self._lease_watch = _FrozenCounters()
        self._run_watch = _FrozenCounters()

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
        nothing beyond the queue directory itself. ``run_id`` (letters,
        digits, ``_`` and ``-`` only) scopes the STOP marker to this sweep
        generation, so a reused queue directory's leftover STOP can never
        turn away newly joining workers.

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
            "run_id": _checked_run_id(run_id),
        }
        self._atomic_write_json(self.config_path, settings)
        self._atomic_write_json(self._run_path(run_id), {
            **settings,
            "active": True,
            "coordinator": _worker_id(),
            "beats": 0,
        })

    def read_config(self) -> dict | None:
        return _read_json(self.config_path)

    def _run_path(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, f"{run_id}.json")

    def run_settings(self, run_id: str) -> dict | None:
        """The settings record a coordinator registered for ``run_id``."""
        return _read_json(self._run_path(run_id))

    def _settings_for(self, run_id: str, fallback: dict) -> dict:
        """The settings that govern ``run_id``'s tasks -- lease timeout,
        retry budget, cache directory: its run record, with ``fallback``
        standing in for a run whose record is gone (a library caller may
        enqueue under a run it never registered)."""
        return {**fallback, **(self.run_settings(run_id) or {})}

    def list_runs(self) -> list[dict]:
        records = (self.run_settings(entry[:-len(".json")])
                   for entry in _names(self.runs_dir, ".json"))
        return [record for record in records if record is not None]

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
        if record is not None:
            record["beats"] = int(record.get("beats", 0)) + 1
            self._atomic_write_json(self._run_path(run_id), record)

    def live_run_ids(self, lease_timeout_s: float) -> list[str]:
        """Active runs whose coordinator still shows signs of life.

        A run counts as live while any of its tasks are pending or leased
        (someone must drain them regardless of the coordinator's fate), or
        while its ``beats`` counter keeps moving within the run's own
        lease-timeout window on this observer's monotonic clock (the
        :class:`_FrozenCounters` contract of :meth:`reclaim_stale`; the
        passed timeout applies only to records without one). A coordinator
        killed without :meth:`signal_stop` therefore stops blocking the
        STOP marker one observation window after its sweep drains, instead
        of pinning a shared fleet to the full drain timeout forever.
        """
        now = time.monotonic()
        tasked = self._tasked_runs()
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
                self._run_watch.forget(run_id)
                live.append(run_id)
                continue
            frozen_for = self._run_watch.unchanged_for(
                run_id, int(record.get("beats", 0)), now
            )
            if frozen_for <= float(record.get("lease_timeout_s", lease_timeout_s)):
                live.append(run_id)
        self._run_watch.retain(seen)
        return live

    def default_results_dir(self) -> str:
        return os.path.join(self.queue_dir, "results")

    def _atomic_write_json(self, path: str, payload: dict) -> None:
        _atomic_write(
            self.queue_dir, path, "w",
            lambda handle: json.dump(payload, handle, indent=2, sort_keys=True),
        )

    # -- state listings --------------------------------------------------------

    def _task_path(self, name: _TaskName) -> str:
        return os.path.join(self.tasks_dir, f"{name.stem()}.task")

    def _lease_path(self, name: _TaskName) -> str:
        return os.path.join(self.leases_dir, f"{name.stem()}.lease")

    def _stems(self, directory: str, suffix: str) -> list[_TaskName]:
        parsed = (_TaskName.parse(entry) for entry in _names(directory, suffix))
        return [name for name in parsed if name is not None]

    def pending_tasks(self) -> list[_TaskName]:
        return self._stems(self.tasks_dir, ".task")

    def active_leases(self) -> list[_TaskName]:
        return self._stems(self.leases_dir, ".lease")

    def _tasked_runs(self) -> dict[str, dict[str, int]]:
        """``run id -> {"pending": n, "leased": m}`` over every run that
        still has a task file in either state."""
        depths: dict[str, dict[str, int]] = {}
        for state, names in (("pending", self.pending_tasks()),
                             ("leased", self.active_leases())):
            for name in names:
                depths.setdefault(
                    name.run, {"pending": 0, "leased": 0})[state] += 1
        return depths

    def failed_keys(self) -> list[str]:
        return [entry[:-len(".err")]
                for entry in _names(self.failed_dir, ".err")]

    def read_failure(self, key: str) -> dict:
        """The terminal failure record of ``key`` (``FileNotFoundError``
        when it has none)."""
        path = os.path.join(self.failed_dir, f"{key}.err")
        record = _read_json(path)
        if record is None:
            raise FileNotFoundError(path)
        return record

    def read_meta(self, key: str) -> dict | None:
        return _read_json(os.path.join(self.meta_dir, f"{key}.json"))

    # -- transitions -----------------------------------------------------------

    def enqueue(
        self,
        cell: SweepCell,
        run: str,
        attempt: int = 1,
        present: set[str] | None = None,
        priority: int | None = None,
    ) -> bool:
        """Make a cell claimable unless it is already queued, leased, or
        terminally failed. Returns whether a task file was created.

        ``run`` (letters, digits, ``_`` and ``-`` only) namespaces the task
        to one coordinator's sweep. ``present`` is an optional snapshot of
        already-present keys (from :meth:`present_keys`): bulk enqueues
        pass it so an N-cell grid costs one directory scan instead of N
        (the snapshot is kept current as cells are added).

        ``priority`` defaults to the cell's estimated cost (higher =
        claimed first), so a run's slowest cells start earliest and never
        become the lone straggler at the end of the drain."""
        _checked_run_id(run)
        key = cell.cache_key()
        if present is not None:
            if key in present:
                return False
        elif key in self.present_keys(run):
            return False
        if priority is None:
            priority = int(cell.estimated_cost())
        priority = max(0, min(int(priority), _TaskName.MAX_PRIORITY))
        name = _TaskName(key=key, attempt=attempt, run=run, priority=priority)
        _atomic_write(
            self.queue_dir, self._task_path(name), "wb",
            lambda handle: pickle.dump(cell, handle),
        )
        if present is not None:
            present.add(key)
        return True

    def present_keys(self, run: str) -> set[str]:
        """Keys of ``run`` currently queued or leased, plus every
        terminally failed key.

        Only that run's tasks and leases count as present: coordinators
        dedupe within their own sweep, but a second coordinator sharing
        the directory still enqueues its own copy of a cell another run
        already carries -- its results may live in a different cache
        directory, and duplicate execution is benign (results are
        idempotent, and workers skip cells whose result already exists).
        Terminal failures are global.
        """
        keys = {name.key
                for name in self.pending_tasks() + self.active_leases()
                if name.run == run}
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
            lease_path = self._lease_path(name)
            try:
                os.rename(self._task_path(name), lease_path)
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

    def _return_lease(
        self, name: _TaskName, lease_path: str, attempt: int
    ) -> bool:
        """The only lease -> task transition: rename ``lease_path`` back
        into ``tasks/`` as attempt ``attempt`` of the same cell. ``False``
        means the lease was already gone -- a reclaimer (or the worker
        itself) moved it first, and that copy carries the cell on."""
        try:
            os.rename(lease_path, self._task_path(name.with_attempt(attempt)))
        except FileNotFoundError:
            return False
        return True

    def requeue(self, claim: ClaimedTask) -> None:
        """Return an unexecuted claim to the task pool without spending an
        attempt (e.g. a batch tail the worker will not get to)."""
        self._return_lease(claim.name, claim.lease_path, claim.name.attempt)

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

    def fail(self, claim: ClaimedTask, error_text: str, max_attempts: int) -> bool:
        """Requeue a failed attempt, or fail terminally once the budget is
        spent. Returns True when the cell will be retried."""
        if claim.name.attempt < max_attempts:
            self._return_lease(claim.name, claim.lease_path,
                               claim.name.attempt + 1)
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
        (:class:`_FrozenCounters`: its own monotonic clock, two looks
        before a fresh :class:`WorkQueue` instance's first reclaim).

        Each lease is judged by *its own run's* staleness window and retry
        budget, resolved through ``runs/<run_id>.json`` exactly as the
        executing worker resolves them for heartbeating; the passed values
        apply only to runs whose record is gone. In a multi-tenant
        directory a coordinator with a short lease timeout therefore can
        never judge another run's slower heartbeat as frozen, reclaim its
        live lease, and burn the wrong retry budget to a terminal
        (directory-global) failure.
        """
        reclaimed = 0
        now = time.monotonic()
        seen: set[str] = set()
        fallback = {"lease_timeout_s": lease_timeout_s,
                    "max_attempts": max_attempts}
        run_settings: dict[str, dict] = {}
        for name in self.active_leases():
            if name.run not in run_settings:
                run_settings[name.run] = self._settings_for(name.run, fallback)
            timeout_s = float(run_settings[name.run]["lease_timeout_s"])
            attempt_budget = int(run_settings[name.run]["max_attempts"])
            stem = name.stem()
            seen.add(stem)
            lease_path = self._lease_path(name)
            try:
                counter = os.path.getsize(lease_path)
            except OSError:
                self._lease_watch.forget(stem)
                continue
            stale_for = self._lease_watch.unchanged_for(stem, counter, now)
            if stale_for <= timeout_s:
                continue
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
            elif not self._return_lease(name, lease_path, name.attempt + 1):
                continue  # another reclaimer (or the worker itself) won
            self._lease_watch.forget(stem)
            reclaimed += 1
        self._lease_watch.retain(seen)
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
        marker = _read_json(self.stop_path, {"run_id": "<unreadable>"})
        return None if marker is None else str(marker.get("run_id"))

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
        tasked = self._tasked_runs()
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
        records = []
        for entry in _names(self.registry_dir, ".json"):
            try:
                record = _read_json(os.path.join(self.registry_dir, entry))
            except OSError:
                continue
            if record is not None:  # else mid-rewrite; the next scan sees it
                records.append(record)
        return records

    def completed_count(self) -> int:
        """Cells with telemetry records (== completed at least once)."""
        return len(_names(self.meta_dir, ".json"))

    def status_snapshot(self) -> dict:
        """One JSON-ready view of the whole service: queue depths per run,
        registered runs, worker health, and the STOP marker. This is what
        ``repro sweep-status`` prints."""
        per_run = self._tasked_runs()
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
            if run_id not in known:  # enqueued under a run nobody registered
                runs.append({"run_id": run_id, "active": None,
                             "coordinator": None, **depths})
        return {
            "queue_dir": os.path.abspath(self.queue_dir),
            "pending": sum(depths["pending"] for depths in per_run.values()),
            "leased": sum(depths["leased"] for depths in per_run.values()),
            "completed": self.completed_count(),
            "failed": self.failed_keys(),
            "stop": self.stop_marker_id(),
            "runs": runs,
            "workers": self.registry_records(),
        }

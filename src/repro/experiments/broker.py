"""The file-queue broker: :class:`WorkQueue`, a shared directory as a work queue.

The broker needs nothing but a shared POSIX directory -- no server, no
sockets, no lock files. Its one primitive is the atomic ``os.rename``, and
the life of a cell is a walk through the directory layout (drawn in
:class:`WorkQueue`) by these transitions, each written down once here:

- **enqueue**: the coordinator registers its sweep in ``runs/<run>.json``,
  then writes each missing cell to ``tasks/<key>.r<run>.a1.task`` (temp
  file + rename, so readers never observe a partial spec);
- **claim**: a worker renames the task into ``leases/`` (same stem,
  ``.lease``); rename succeeds for exactly one claimant, which is the whole
  mutual-exclusion story. A worker claims up to ``lease_batch`` cells per
  directory scan (one rename each, one scan amortized across the batch),
  never more than it may still execute;
- **complete**: the worker stores the result through the cache's
  temp+rename write, records timing telemetry in ``meta/<key>.json``, and
  deletes its lease -- in that order, so a cell whose run holds neither a
  task nor a lease for it and whose result is on disk has landed, telemetry
  included (the coordinator's landing rule);
- **return** (:meth:`WorkQueue._return_lease`, the only lease -> task
  rename): a failed attempt and a dead worker's lease go back with the
  attempt counter bumped (``fail``, ``reclaim_stale``);
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
  surfaces it as a hard error, until a re-run of its sweep clears it
  (``clear_failures``).

Because results are idempotent (bit-identical regardless of which worker
executes a cell, enforced by the determinism test suite), the races left
open by this design -- e.g. a presumed-dead worker completing after its
lease was reclaimed -- are benign: both writers store the same bytes.

Scheduling and multi-tenancy ride on the task filename (:class:`_TaskName`)
through its run id: within a run, cells are claimed in key order; across
runs, a worker round-robins over the runs sharing the queue directory, so
two coordinators' sweeps interleave instead of queueing behind each other,
and their task files can never collide. The run record
``runs/<run_id>.json`` is the one on-disk state of a sweep: its settings
(which govern that run's tasks only), its coordinator's liveness counter,
and ``active`` -- the coordinator flips it to ``false`` on exit, which is
how every worker learns that the sweep is over.

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
from collections.abc import Collection, Iterable
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

#: A cache key is a hex digest; a task name whose key is anything else was
#: written by another task-name generation and is not parsed.
_KEY = re.compile(r"[0-9a-f]+")


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


@dataclass(frozen=True)
class _TaskName:
    """Parsed broker filename stem ``<sha256-key>.r<run>.a<attempt>``.

    ``run`` namespaces the task to one coordinator's sweep, so two
    coordinators sharing a queue directory can never collide on a filename
    and fair-share scheduling can tell their tasks apart.

    The key is a hex digest and a run id contains no ``.``
    (:data:`_RUN_ID`), so the ``.r``/``.a`` markers can never occur inside
    either and parsing is unambiguous.
    """

    key: str
    attempt: int
    run: str

    @classmethod
    def parse(cls, filename: str) -> _TaskName | None:
        stem, _, _ = filename.rpartition(".")
        head, _, attempt = stem.rpartition(".a")
        key, _, run = head.rpartition(".r")
        if not (_KEY.fullmatch(key) and run and attempt.isdigit()):
            return None
        return cls(key=key, attempt=int(attempt), run=run)

    def stem(self) -> str:
        return f"{self.key}.r{self.run}.a{self.attempt}"


@dataclass
class ClaimedTask:
    """A lease this process currently owns."""

    name: _TaskName
    lease_path: str
    cell: SweepCell


class WorkQueue:
    """Rename-based file work broker over a shared directory.

    Layout under ``queue_dir`` (see docs/distributed_sweeps.md)::

        tasks/       claimable cells:   <key>.r<run>.a<n>.task
        leases/      in-flight cells:   same stem, .lease (task bytes plus
                     one appended heartbeat byte per beat)
        failed/      exhausted cells:   <key>.err               (JSON)
        meta/        per-cell telemetry <key>.json              (JSON)
        runs/        one record per coordinator sweep: <run_id>.json with
                     that sweep's settings (retry budget, lease timeout,
                     results directory, lease batch), ``active`` and the
                     coordinator's ``beats``
        registry/    worker health records: <worker_id>.json
        results/     default ResultCache directory (sha256-keyed pickles)

    Every transition is a single atomic rename, so any number of workers on
    any number of hosts (sharing the directory, e.g. over NFS) coordinate
    without locks: exactly one claimant wins each task file.
    """

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
        # directory -> {filename: parsed name} as of its last listing; each
        # scan parses only the names it has not seen, then keeps just the
        # current listing. Scans share the (frozen) parsed names.
        self._parsed: dict[str, dict[str, _TaskName | None]] = {}

    # -- run records -----------------------------------------------------------

    def write_config(
        self,
        *,
        cache_dir: str,
        max_attempts: int,
        lease_timeout_s: float,
        run_id: str,
        lease_batch: int = 1,
    ) -> None:
        """Register ``runs/<run_id>.json``: this sweep's settings plus
        ``active: true``, so bare ``sweep-worker`` processes need nothing
        beyond the queue directory itself. ``run_id`` is letters, digits,
        ``_`` and ``-`` only.

        Each task is governed by its own run's record, so two coordinators
        with different cache directories, retry budgets or lease batches
        coexist in one queue directory.
        """
        self._atomic_write_json(self._run_path(_checked_run_id(run_id)), {
            "cache_dir": os.path.abspath(cache_dir),
            "max_attempts": int(max_attempts),
            "lease_timeout_s": float(lease_timeout_s),
            "lease_batch": int(lease_batch),
            "run_id": run_id,
            "active": True,
            "coordinator": _worker_id(),
            "beats": 0,
        })

    def _run_path(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, f"{run_id}.json")

    def run_settings(self, run_id: str) -> dict | None:
        """The settings record a coordinator registered for ``run_id``."""
        return _read_json(self._run_path(run_id))

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

    def live_run_ids(self) -> list[str]:
        """Active runs whose coordinator still shows signs of life.

        A run counts as live while any of its tasks are pending or leased
        (someone must drain them regardless of the coordinator's fate), or
        while its ``beats`` counter keeps moving within the run's own
        ``lease_timeout_s`` window on this observer's monotonic clock (the
        :class:`_FrozenCounters` contract of :meth:`reclaim_stale`). A
        coordinator killed without :meth:`signal_stop` therefore stops
        holding workers one observation window after its sweep drains,
        instead of pinning a shared fleet to the full drain timeout forever.
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
            if frozen_for <= float(record["lease_timeout_s"]):
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
        known = self._parsed.get(directory, {})
        parsed = {entry: known[entry] if entry in known
                  else _TaskName.parse(entry)
                  for entry in _names(directory, suffix)}
        self._parsed[directory] = parsed
        return [name for name in parsed.values() if name is not None]

    def pending_tasks(self) -> list[_TaskName]:
        return self._stems(self.tasks_dir, ".task")

    def active_leases(self) -> list[_TaskName]:
        return self._stems(self.leases_dir, ".lease")

    def _tasked_runs(self) -> dict[str, dict[str, int]]:
        """``run id -> {"pending": n, "leased": m, "retrying": r}`` over
        every run that still has a task file in either state; ``retrying``
        counts those of either state past their first attempt."""
        depths: dict[str, dict[str, int]] = {}
        for state, names in (("pending", self.pending_tasks()),
                             ("leased", self.active_leases())):
            for name in names:
                run = depths.setdefault(
                    name.run, {"pending": 0, "leased": 0, "retrying": 0})
                run[state] += 1
                run["retrying"] += name.attempt > 1
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
    ) -> bool:
        """Make a cell claimable unless it is already queued, leased, or
        terminally failed. Returns whether a task file was created.

        ``run`` (letters, digits, ``_`` and ``-`` only) namespaces the task
        to one coordinator's sweep. ``present`` is an optional snapshot of
        already-present keys (from :meth:`present_keys`): bulk enqueues
        pass it so an N-cell grid costs one directory scan instead of N
        (the snapshot is kept current as cells are added)."""
        _checked_run_id(run)
        key = cell.cache_key()
        if present is not None:
            if key in present:
                return False
        elif key in self.present_keys(run):
            return False
        name = _TaskName(key=key, attempt=attempt, run=run)
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
        return self.held_keys(run) | set(self.failed_keys())

    def held_keys(self, run: str) -> set[str]:
        """Keys ``run`` holds a task or a lease for: its cells not yet
        landed. ``tasks/`` is listed before ``leases/``, and a cell only
        ever moves between the two by rename, so a cell held throughout
        the call is never missed."""
        return {name.key
                for name in self.pending_tasks() + self.active_leases()
                if name.run == run}

    def _claim_order(self, rotation: str | None = None) -> list[_TaskName]:
        """Pending tasks in the order a worker should try to claim them.

        Within one run: by key (then attempt). Across runs: round-robin,
        one task per run per rank, cycling the sorted run ids starting
        just *after* ``rotation`` (the run this worker last claimed from)
        -- so a worker alternates between concurrent sweeps instead of
        draining whichever run sorts first, and no run starves while
        another has pending work. Pure function of the directory listing
        plus the caller's rotation cursor: no coordination state on disk.
        """
        by_run: dict[str, list[_TaskName]] = {}
        for name in self.pending_tasks():
            by_run.setdefault(name.run, []).append(name)
        for names in by_run.values():
            names.sort(key=lambda name: (name.key, name.attempt))
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

    def _return_lease(self, name: _TaskName, lease_path: str) -> bool:
        """The only lease -> task transition: rename ``lease_path`` back
        into ``tasks/`` as the next attempt of the same cell. ``False``
        means the lease was already gone -- a reclaimer (or the worker
        itself) moved it first, and that copy carries the cell on."""
        next_attempt = replace(name, attempt=name.attempt + 1)
        try:
            os.rename(lease_path, self._task_path(next_attempt))
        except FileNotFoundError:
            return False
        return True

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
            self._return_lease(claim.name, claim.lease_path)
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

    def clear_failures(self, keys: Iterable[str]) -> None:
        """Delete the terminal failure records of ``keys``: a re-run of a
        sweep is an explicit request to retry its cells, which makes them
        claimable again (other sweeps' failures in a shared directory stay
        put)."""
        for key in keys:
            try:
                os.unlink(os.path.join(self.failed_dir, f"{key}.err"))
            except FileNotFoundError:
                pass

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
                run_settings[name.run] = {
                    **fallback, **(self.run_settings(name.run) or {})}
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
            elif not self._return_lease(name, lease_path):
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

    def signal_stop(self, run_id: str) -> None:
        """End this sweep: flip its run record to ``active: false``.

        Workers leave once nothing is claimable and no run is still live
        (:meth:`live_run_ids`), so in-flight and still-queued cells finish
        first and one coordinator finishing can never pull a shared fleet
        out from under another coordinator's half-drained sweep."""
        record = self.run_settings(run_id)
        if record is not None:
            record["active"] = False
            self._atomic_write_json(self._run_path(run_id), record)

    def prune_retired(self) -> None:
        """Garbage-collect retired records.

        Called by every coordinator before it registers its run: run
        records that are inactive *and* have no pending or leased tasks
        left (their settings govern nothing anymore), and registry records
        of exited workers, are pruned here rather than accumulating forever
        in a long-lived queue directory. Records of runs that still carry
        tasks are kept, since those tasks' settings live in them.
        """
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
        registered runs, worker health. This is what ``repro sweep-status``
        prints.

        Every count is read off files that already exist: per run,
        ``retrying`` (tasks and leases past their first attempt, from the
        task names) and ``quarantined`` (result files moved aside under
        the run's ``<cache_dir>/quarantine/``); at the top, ``reclaimed``
        (the ``cells_reclaimed`` exited workers recorded in ``registry/``).
        """
        per_run = self._tasked_runs()
        idle = {"pending": 0, "leased": 0, "retrying": 0}
        runs = []
        for record in self.list_runs():
            quarantine = os.path.join(record["cache_dir"],
                                      ResultCache.QUARANTINE_SUBDIR)
            runs.append({
                "run_id": record["run_id"],
                "active": bool(record.get("active")),
                "coordinator": record.get("coordinator"),
                **per_run.get(record["run_id"], idle),
                "quarantined": len(_names(quarantine, ".pkl")),
            })
        known = {run["run_id"] for run in runs}
        for run_id, depths in sorted(per_run.items()):
            if run_id not in known:  # enqueued under a run nobody registered
                runs.append({"run_id": run_id, "active": None,
                             "coordinator": None, **depths, "quarantined": 0})
        workers = self.registry_records()
        return {
            "queue_dir": os.path.abspath(self.queue_dir),
            "pending": sum(depths["pending"] for depths in per_run.values()),
            "leased": sum(depths["leased"] for depths in per_run.values()),
            "completed": self.completed_count(),
            "failed": self.failed_keys(),
            "reclaimed": sum(int(worker.get("cells_reclaimed", 0))
                             for worker in workers),
            "runs": runs,
            "workers": workers,
        }

"""The sweep-service worker: :func:`run_queue_worker` and what keeps it alive.

A worker is any process that joins a queue directory (``repro sweep-worker``
on any host that mounts it, or a local process a
:class:`~repro.experiments.executors.QueueExecutor` spawns) and drives the
:class:`~repro.experiments.broker.WorkQueue` transitions for the cells it
wins: claim a batch, execute under a lease heartbeat, complete or fail each
cell, reclaim dead peers' leases when idle. On top of the broker it adds:

- the **lease heartbeat** (:class:`_LeaseHeartbeat`): one thread per
  worker that appends one counter byte per beat to every lease of the batch
  it holds, the liveness signal that ``reclaim_stale`` watches;
- the **worker registry** (``registry/<worker_id>.json``,
  :class:`_WorkerRegistry`): every worker keeps a health record (host,
  pid, current cell, cells completed, beat counter) that ``repro sweep``
  progress output and ``repro sweep-status`` surface. It is rewritten when
  a cell starts, when the worker goes idle, when a cell fails, on each
  heartbeat beat and on exit -- a completed cell costs no write of its own,
  so a cell costs three writes: its start, its result and its
  telemetry;
- **deterministic poll jitter and back-off** (:func:`_poll_jitter`,
  :func:`_poll_delay`), so a fleet rescans ``tasks/`` out of phase. The
  back-off governs only that rescan (and ``reclaim_stale``): an idle
  worker waits it out in slices of the base cadence and reads the set of
  active run ids after each (:func:`_idle_wait`), so a drained sweep's
  workers see its run record go inactive within one base interval, however
  far they have backed off;
- **wake events for local workers**: a worker that a
  :class:`~repro.experiments.executors.QueueExecutor` spawns shares two
  events with it. The worker sets ``idle`` whenever it writes its ``idle``
  status -- once it finds nothing left to claim, so right after the
  sweep's last completion too -- which ends the coordinator's wait between
  drain scans; the coordinator sets ``stop`` after retiring its run, which
  ends the worker's idle wait. A ring only cuts a wait short: every
  decision is still read from the files. ``repro sweep-worker`` processes
  share no event and poll.

Everything a worker knows about a sweep comes from its run record
``runs/<run_id>.json``: each claimed task's settings, and whether the sweep
is over. A worker leaves when nothing is claimable, no run is live
(:meth:`~repro.experiments.broker.WorkQueue.live_run_ids`), and it has seen
a run that was not already retired when it started.

Imports :mod:`~repro.experiments.cache` and :mod:`~repro.experiments.broker`;
without wake events the poll loop sleeps through the ``time`` module's
``sleep`` attribute.
"""

from __future__ import annotations

import hashlib
import math
import os
import socket
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.experiments.broker import MIN_LEASE_TIMEOUT_S, WorkQueue, _worker_id
from repro.experiments.cache import ResultCache

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from multiprocessing.synchronize import Event

__all__ = ["WorkerSummary", "run_queue_worker"]


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
    """How long an idle worker waits before rescanning the queue.

    ``base * (0.5 + jitter)`` de-synchronizes the fleet; consecutive idle
    polls back off exponentially (capped at 8x) so a drained-but-open
    queue is not rescanned at full rate forever. When the queue is
    *empty-but-leased* -- nothing claimable, peers still executing -- the
    cap applies immediately: rescans can only discover a reclaim or a
    retry, both of which arrive on lease-timeout timescales. The back-off
    paces the rescan only; the active run ids are read every base interval
    throughout the wait (:func:`_idle_wait`).
    """
    backoff = 8 if empty_but_leased else min(2 ** max(0, idle_polls - 1), 8)
    return base_s * (0.5 + jitter) * backoff


def _idle_wait(
    queue: WorkQueue, delay_s: float, slice_s: float, active: set[str],
    stop: Event | None = None,
) -> bool:
    """Wait up to ``delay_s`` before the next rescan, reading the active
    run ids after every ``slice_s``.

    Returns ``True`` as soon as they differ from ``active`` (the set the
    caller last scanned under) -- a sweep ended or a new one registered --
    so the caller's rescan and exit test run within one base interval
    instead of after an 8x back-off; ``False`` once the full delay has
    elapsed. At most ``ceil(delay_s / slice_s) + 1`` reads of ``runs/`` per
    wait, never a busy spin.

    A slice is slept through ``time.sleep``, or -- for a local worker,
    which gets its coordinator's ``stop`` event -- waited on ``stop``, so
    the run ids are read as soon as the coordinator signals the end. The
    event stays set, so once it has cut one slice short, the rest of this
    wait sleeps.
    """
    deadline = time.monotonic() + delay_s
    while (left := deadline - time.monotonic()) > 0:
        if stop is None:
            time.sleep(min(slice_s, left))
        elif stop.wait(min(slice_s, left)):
            stop = None
        if set(queue.active_run_ids()) != active:
            return True
    return False


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
    """Append one counter byte per beat to each held lease while its cell
    executes, so a *live* worker's lease counter never freezes no matter
    how long the cell runs; only a dead worker's counter stops moving.

    Appending (rather than touching mtime) keeps the liveness signal
    inside the file where every observer reads the same value -- there is
    no cross-host clock or mtime-granularity dependence. The appended
    bytes are invisible to consumers: ``pickle.load`` stops at its STOP
    opcode and never reads the tail, so a reclaimed lease re-pickles
    cleanly after its rename back into ``tasks/``.

    One thread serves a whole :func:`run_queue_worker` call: :meth:`hold`
    hands it a claimed batch's lease paths and beat interval, and
    :meth:`release` takes them back, so the thread beats only what the
    worker holds and sleeps between batches. A path that disappears
    (completed, or reclaimed from under us) is skipped, never recreated.
    A beat runs under the same lock as :meth:`release`, so once
    ``release`` returns, no byte reaches the released leases. ``on_beat``
    lets the worker piggyback its registry heartbeat on the same cadence.
    """

    def __init__(self, on_beat: Callable[[], None] | None = None):
        self._on_beat = on_beat
        self._lease_paths: list[str] = []
        self._interval_s: float | None = None  # None: nothing held
        self._stopped = False
        self._changed = threading.Condition()
        self._thread = threading.Thread(target=self._beat, daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        with self._changed:
            self._stopped = True
            self._changed.notify()
        self._thread.join()

    def hold(self, lease_paths: Sequence[str], interval_s: float) -> None:
        """Beat ``lease_paths`` every ``interval_s`` from now on."""
        with self._changed:
            self._lease_paths = list(lease_paths)
            self._interval_s = max(0.05, interval_s)
            self._changed.notify()

    def release(self) -> None:
        """Stop beating the held leases; the thread idles until the next
        :meth:`hold`."""
        with self._changed:
            self._lease_paths = []
            self._interval_s = None
            self._changed.notify()

    def _beat(self) -> None:
        with self._changed:
            while not self._stopped:
                if self._interval_s is None:
                    self._changed.wait()
                elif not self._changed.wait(self._interval_s):
                    # A full interval passed with nothing held changing.
                    for path in self._lease_paths:
                        _append_heartbeat_byte(path)
                    if self._on_beat is not None:
                        self._on_beat()


class _WorkerRegistry:
    """This worker's health record in ``registry/<worker_id>.json``.

    The record is the service's observability surface: host, pid, what
    the worker is doing right now, how much it has done, where its
    wall-clock went (``busy_s`` / ``idle_s``), and a beat counter bumped
    by the lease heartbeat. It is written when a cell starts, when the
    worker goes idle, when a cell fails, on every heartbeat beat and on
    exit; a completed cell's counters ride on the next of those writes
    instead of costing one of their own. Its ``status`` on disk is
    therefore ``executing``, ``idle`` or ``exited``. Thread-safe because
    the heartbeat thread calls :meth:`beat` while the worker's main thread
    updates status. ``last_seen`` is a wall-clock
    timestamp for *human* display only -- liveness decisions always use
    the ``beats`` counter (same contract as lease staleness: counters,
    never clocks).
    """

    def __init__(self, queue: WorkQueue, worker: str):
        self._queue = queue
        self._lock = threading.Lock()
        self._path = os.path.join(queue.registry_dir, f"{worker}.json")
        self._record = {
            "worker": worker,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "status": "idle",
            "current_cell": None,
            "cells_completed": 0,
            "cells_failed": 0,
            "busy_s": 0.0,
            "idle_s": 0.0,
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

    def note_finished(self, counter: str) -> None:
        """The current cell ended: bump ``cells_completed`` or
        ``cells_failed`` (``counter``) and clear ``current_cell``. Only a
        failure is written at once; a completion waits for the next
        write."""
        with self._lock:
            self._record[counter] += 1
            self._record["current_cell"] = None
            if counter == "cells_failed":
                self._write()

    def _write(self) -> None:
        # repro-lint: allow[RPL020] -- human-facing "last seen" timestamp in
        # a worker health record; broker observability, never a simulation
        # input (liveness logic reads the beats counter instead)
        self._record["last_seen"] = time.time()
        self._queue._atomic_write_json(self._path, dict(self._record))


@dataclass
class WorkerSummary:
    """What one ``run_queue_worker`` invocation did.

    ``busy_s`` (inside ``cell.execute()``) and ``idle_s`` (in the idle
    wait) are monotonic host-clock telemetry: they draw no random numbers
    and feed no result or cache key.
    """

    worker: str
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    reclaimed: int = 0
    busy_s: float = 0.0
    idle_s: float = 0.0


def run_queue_worker(
    queue_dir: str,
    poll_interval_s: float = 0.2,
    drain_timeout_s: float = 10.0,
    max_cells: int | None = None,
    progress: Callable[[str], None] | None = None,
    lease_batch: int | None = None,
    coordinator_run: str | None = None,
    wake: tuple[Event, Event] | None = None,
) -> WorkerSummary:
    """Join a queue directory and execute cells until it drains.

    The worker loop: claim up to ``lease_batch`` tasks in one scan
    (default: the smallest ``lease_batch`` among the active run records,
    1 when there are none); cells whose result already exists drop their
    lease (``skipped``); the rest execute sequentially under one lease
    heartbeat and complete or fail individually. Each task's settings
    (result-cache path, retry budget, lease timeout) come from its own
    run's record, so tasks from different coordinators land in their own
    cache directories; a task whose run has no record fails terminally.
    With nothing claimable the worker reclaims stale leases, then rescans
    with deterministic per-worker jittered backoff, reading the active run
    ids every base interval in between. Any number of these may run
    concurrently against the same directory, on any number of hosts; each
    maintains a health record in ``registry/``.

    The worker exits after ``max_cells`` executions, after
    ``drain_timeout_s`` with no claimable work, or as soon as nothing is
    claimable, no run is live, and it has seen a run that was not already
    retired when it started -- records retired before then belong to
    earlier sweeps, so a worker that joins ahead of the next coordinator
    waits for it. ``coordinator_run`` is for :class:`QueueExecutor` alone:
    the run that spawned this worker counts as seen, however early it
    ends (a fully cached sweep retires its run before its workers are up).
    ``wake`` is :class:`QueueExecutor`'s ``(idle, stop)`` event pair: the
    worker sets ``idle`` each time it writes its ``idle`` status, and its
    idle wait ends once ``stop`` is set (:func:`_idle_wait`). Without it
    the worker only polls, sleeping through ``time.sleep``.
    """
    if not (math.isfinite(poll_interval_s) and poll_interval_s > 0):
        raise ValueError(
            f"poll_interval_s must be finite and > 0, got {poll_interval_s}"
        )
    if not drain_timeout_s >= 0:
        raise ValueError(f"drain_timeout_s must be >= 0, got {drain_timeout_s}")
    if lease_batch is not None and lease_batch < 1:
        raise ValueError(f"lease_batch must be >= 1, got {lease_batch}")
    queue = WorkQueue(queue_dir)
    summary = WorkerSummary(worker=_worker_id())
    say = progress if progress is not None else (lambda message: None)
    registry = _WorkerRegistry(queue, summary.worker)
    jitter = _poll_jitter(summary.worker)
    base_s = poll_interval_s * (0.5 + jitter)
    idle_since = time.monotonic()
    idle_polls = 0
    rotation: str | None = None  # run id this worker last claimed from
    retired_at_start = {record["run_id"] for record in queue.list_runs()
                        if not record.get("active")}
    seen_run = coordinator_run is not None
    idle_event, stop_event = wake if wake is not None else (None, None)

    def idle_wait(delay_s: float, active: set[str]) -> None:
        start = time.monotonic()
        _idle_wait(queue, delay_s, base_s, active, stop_event)
        summary.idle_s += time.monotonic() - start

    def set_status(status: str, **fields: object) -> None:
        registry.update(status=status, busy_s=summary.busy_s,
                        idle_s=summary.idle_s, **fields)

    heartbeat = _LeaseHeartbeat(on_beat=registry.beat)
    heartbeat.start()
    idle = False  # whether status "idle" is on disk
    try:
        while True:
            remaining = None
            if max_cells is not None:
                remaining = max_cells - summary.executed
                if remaining <= 0:
                    break
            runs = {record["run_id"]: record for record in queue.list_runs()}
            active = [record for record in runs.values()
                      if record.get("active")]
            seen_run = seen_run or any(run_id not in retired_at_start
                                       for run_id in runs)
            limit = lease_batch if lease_batch is not None else min(
                (int(record.get("lease_batch", 1)) for record in active),
                default=1)
            if remaining is not None:
                # Never claim more than this invocation may still execute:
                # a capped worker must not strand a batch tail in leases.
                limit = min(limit, remaining)
            claims = queue.claim_batch(limit, rotation=rotation)
            if not claims:
                # Each lease is judged by its own run's record; the passed
                # settings reach only leases of a run without one, which no
                # worker executes (see below), so they fail at the floor.
                reclaimed = queue.reclaim_stale(MIN_LEASE_TIMEOUT_S, 1)
                if reclaimed:
                    # A dead peer's cell just became claimable again: that is
                    # new work, not idleness -- never drain out on top of it.
                    summary.reclaimed += reclaimed
                    idle_since = time.monotonic()
                    idle_polls = 0
                    continue
                # Drain, then exit -- checked only with nothing claimable and
                # once no run is still *live*: in-flight and still-queued
                # cells always finish first, a run retired before this worker
                # started can never turn it away, and one coordinator's exit
                # never strands a concurrent coordinator's half-drained
                # sweep. Liveness (not the raw active flag) keeps a
                # coordinator that died without signal_stop from holding
                # workers forever.
                if seen_run and not queue.live_run_ids():
                    break
                if time.monotonic() - idle_since > drain_timeout_s:
                    break
                if not idle:
                    set_status("idle", current_cell=None)
                    idle = True
                    if idle_event is not None:
                        idle_event.set()
                idle_polls += 1
                idle_wait(_poll_delay(
                    poll_interval_s, jitter, idle_polls,
                    empty_but_leased=bool(queue.active_leases()),
                ), {record["run_id"] for record in active})
                continue
            idle_since = time.monotonic()
            idle_polls = 0
            rotation = claims[-1].name.run
            # The records listed above; only a run registered since then
            # is read again.
            settings = {run: runs.get(run) or queue.run_settings(run)
                        for run in {claim.name.run for claim in claims}}
            for claim in claims:
                if settings[claim.name.run] is None:
                    # No record, no cache directory to store into: fail the
                    # task rather than run it under another run's settings.
                    error = f"run {claim.name.run} has no record in runs/"
                    queue.fail(claim, error, max_attempts=0)
                    summary.failed += 1
                    registry.note_finished("cells_failed")
                    say(f"cell {claim.cell.label()} failed: {error}")
            claims = [claim for claim in claims
                      if settings[claim.name.run] is not None]
            if not claims:
                continue
            heartbeat.hold(
                [claim.lease_path for claim in claims],
                min(settings[claim.name.run]["lease_timeout_s"]
                    for claim in claims) / 3.0,
            )
            try:
                for claim in claims:
                    cfg = settings[claim.name.run]
                    cache = ResultCache(cfg["cache_dir"])
                    if cache.load(claim.name.key) is not None:
                        # Another worker finished the cell between enqueue
                        # and this claim: drop the lease, execute nothing.
                        queue._drop_lease(claim.lease_path)
                        summary.skipped += 1
                        continue
                    say(f"executing {claim.cell.label()} "
                        f"(attempt {claim.name.attempt}/{cfg['max_attempts']})")
                    set_status("executing", current_cell=claim.cell.label())
                    idle = False
                    start = time.perf_counter()
                    try:
                        result = claim.cell.execute()
                    except Exception as error:
                        summary.failed += 1
                        retrying = queue.fail(
                            claim, f"{type(error).__name__}: {error}",
                            cfg["max_attempts"],
                        )
                        registry.note_finished("cells_failed")
                        say(f"cell {claim.cell.label()} failed "
                            f"({'will retry' if retrying else 'retry budget exhausted'}): "
                            f"{error}")
                        continue
                    finally:
                        runtime = time.perf_counter() - start
                        summary.busy_s += runtime
                    summary.executed += 1
                    queue.complete(claim, cache, result, runtime,
                                   seq=summary.executed)
                    registry.note_finished("cells_completed")
            finally:
                heartbeat.release()
    finally:
        heartbeat.stop()
        set_status("exited", current_cell=None,
                   cells_skipped=summary.skipped,
                   cells_reclaimed=summary.reclaimed)
    return summary


def _local_worker_entry(
    queue_dir: str, poll_interval_s: float, run_id: str,
    idle: Event, stop: Event,
) -> None:
    """Top-level target for coordinator-spawned local worker processes."""
    # Local workers live as long as the coordinator keeps the queue open:
    # its run record going inactive, not a drain timeout, ends them.
    run_queue_worker(
        queue_dir,
        poll_interval_s=poll_interval_s,
        drain_timeout_s=float("inf"),
        coordinator_run=run_id,
        wake=(idle, stop),
    )

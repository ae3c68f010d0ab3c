"""The sweep-service worker: :func:`run_queue_worker` and what keeps it alive.

A worker is any process that joins a queue directory (``repro sweep-worker``
on any host that mounts it, or a local process a
:class:`~repro.experiments.executors.QueueExecutor` spawns) and drives the
:class:`~repro.experiments.broker.WorkQueue` transitions for the cells it
wins: claim a batch, execute under a lease heartbeat, complete or fail each
cell, reclaim dead peers' leases when idle. On top of the broker it adds:

- the **lease heartbeat** (:class:`_LeaseHeartbeat`): one counter byte
  appended to every held lease per beat, the liveness signal that
  ``reclaim_stale`` watches;
- the **worker registry** (``registry/<worker_id>.json``,
  :class:`_WorkerRegistry`): every worker heartbeats a health record (host,
  pid, current cell, cells completed, beat counter) that ``repro sweep``
  progress output and ``repro sweep-status`` surface;
- **deterministic poll jitter and back-off** (:func:`_poll_jitter`,
  :func:`_poll_delay`), so a fleet rescans ``tasks/`` out of phase. The
  back-off governs only that rescan (and ``reclaim_stale``): an idle
  worker waits it out in slices of the base cadence and reads the ``STOP``
  marker after each (:func:`_idle_wait`), so a drained sweep's workers see
  ``STOP`` within one base interval, however far they have backed off.

Imports :mod:`~repro.experiments.cache` and :mod:`~repro.experiments.broker`;
the poll loop sleeps through the ``time`` module's ``sleep`` attribute.
"""

from __future__ import annotations

import hashlib
import os
import socket
import threading
import time
from collections.abc import Callable, Container, Sequence
from dataclasses import dataclass

from repro.experiments.broker import WorkQueue, _worker_id
from repro.experiments.cache import ResultCache

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
    paces the rescan only; the ``STOP`` marker is read every base interval
    throughout the wait (:func:`_idle_wait`).
    """
    backoff = 8 if empty_but_leased else min(2 ** max(0, idle_polls - 1), 8)
    return base_s * (0.5 + jitter) * backoff


def _idle_wait(
    queue: WorkQueue, delay_s: float, slice_s: float,
    known_stops: Container[str | None],
) -> str | None:
    """Wait up to ``delay_s`` before the next rescan, reading the ``STOP``
    marker after every ``slice_s``.

    Returns early -- with the marker's run id -- only when the marker names
    a run outside ``known_stops`` (no marker, the stale startup marker and
    the marker the worker has already weighed), so the caller's exit test
    runs as soon as a coordinator finishes instead of after an 8x back-off.
    Returns ``None`` once the full delay has elapsed. At most
    ``ceil(delay_s / slice_s)`` marker reads per wait: one small-file read
    per base interval, never a busy spin.
    """
    deadline = time.monotonic() + delay_s
    while (left := deadline - time.monotonic()) > 0:
        time.sleep(min(slice_s, left))
        marker = queue.stop_marker_id()
        if marker not in known_stops:
            return marker
    return None


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
        lease_paths: Sequence[str],
        interval_s: float,
        on_beat: Callable[[], None] | None = None,
    ):
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
    the worker is doing right now, how much it has done, where its
    wall-clock went (``busy_s`` / ``idle_s``, refreshed at every status
    change and on exit), and a beat counter bumped by the lease heartbeat.
    Thread-safe because the heartbeat thread calls :meth:`beat` while the
    worker's main thread updates status. ``last_seen`` is a wall-clock
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
            "status": "starting",
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
        ``cells_failed`` (``counter``) and clear ``current_cell``."""
        with self._lock:
            self._record[counter] += 1
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
) -> WorkerSummary:
    """Join a queue directory and execute cells until it drains.

    The worker loop: claim up to ``lease_batch`` tasks in one scan
    (default: the coordinator's published setting); cells whose result
    already exists drop their lease (``skipped``); the rest execute
    sequentially under one lease heartbeat and complete or fail
    individually. With nothing claimable the worker reclaims stale
    leases, then rescans with deterministic per-worker jittered backoff,
    reading the STOP marker every base interval in between; it exits
    after ``drain_timeout_s`` with no claimable work, when the
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
    base_s = poll_interval_s * (0.5 + jitter)
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
    seen_stop = startup_stop  # the newest marker the exit test has weighed

    def idle_wait(delay_s: float) -> None:
        nonlocal seen_stop
        start = time.monotonic()
        seen_stop = _idle_wait(queue, delay_s, base_s,
                               (None, startup_stop, seen_stop)) or seen_stop
        summary.idle_s += time.monotonic() - start

    def set_status(status: str, **fields: object) -> None:
        registry.update(status=status, busy_s=summary.busy_s,
                        idle_s=summary.idle_s, **fields)

    set_status("idle")
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
                idle_wait(_poll_delay(poll_interval_s, jitter, idle_polls,
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
                marker = seen_stop = queue.stop_marker_id()
                if (marker is not None and marker != startup_stop
                        and not queue.live_run_ids(config["lease_timeout_s"])):
                    break
                if time.monotonic() - idle_since > drain_timeout_s:
                    break
                idle_polls += 1
                idle_wait(_poll_delay(
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
            # shared config for a run whose record is gone.
            config = queue.read_config() or config
            settings = [queue._settings_for(claim.name.run, config)
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
                        # Another worker finished the cell between enqueue
                        # and this claim: drop the lease, execute nothing.
                        queue._drop_lease(claim.lease_path)
                        summary.skipped += 1
                        continue
                    say(f"executing {claim.cell.label()} "
                        f"(attempt {claim.name.attempt}/{cfg['max_attempts']})")
                    set_status("executing", current_cell=claim.cell.label())
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
            set_status("idle", current_cell=None)
    finally:
        set_status("exited", current_cell=None,
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

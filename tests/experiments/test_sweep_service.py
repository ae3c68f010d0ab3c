"""Service-layer tests for the long-lived sweep queue.

The broker's PR 5 contract (claim/complete/fail/reclaim) lives in
test_executors.py; this file covers the service features layered on top:
counter-based lease staleness (the mtime bugfix), per-run reclaim
settings (the multi-tenant reclaim bugfix), coordinator run liveness (the
crashed-coordinator lockout bugfix), deterministic jittered polling
(the thundering-herd bugfix), batch leases, key-order + fair-share
scheduling across concurrent sweeps, the worker registry, and streaming
aggregation.
"""

import json
import math
import multiprocessing
import os
import pickle
import string
import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.experiments.broker import _TaskName
from repro.experiments.executors import (
    MIN_LEASE_TIMEOUT_S,
    InlineExecutor,
    QueueExecutor,
    ResultCache,
    WorkQueue,
    make_executor,
    run_queue_worker,
)
from repro.experiments import worker as worker_module
from repro.experiments.worker import (
    _append_heartbeat_byte,
    _idle_wait,
    _LeaseHeartbeat,
    _local_worker_entry,
    _poll_delay,
    _poll_jitter,
)
from repro.experiments.reporting import format_worker_health
from repro.experiments.sweeps import (
    SweepResult,
    aggregate_sweep,
    run_sweep,
)
# Same-directory import (pytest prepend mode; the test tree is not a
# package): the sweep tests own the tiny-spec helpers.
from test_sweeps import (
    assert_results_identical,
    metric_rows,
    tiny_spec,
)

FAST = dict(lease_timeout_s=5.0, poll_interval_s=0.02)


def assert_rows_equal(a, b):
    """metric_rows equality that treats NaN == NaN (partial snapshots have
    single-seed groups, whose std columns are NaN by contract)."""
    def norm(rows):
        return [["nan" if isinstance(v, float) and np.isnan(v) else v
                 for v in row] for row in rows]
    assert norm(a) == norm(b)


def make_queue(tmp_path) -> WorkQueue:
    return WorkQueue(str(tmp_path / "queue"))


def wait_for_growth(path, size, timeout_s=5.0):
    """Whether ``path`` grows past ``size`` bytes within ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while os.path.getsize(path) <= size:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def single_cell_claim(tmp_path):
    """A queue holding one claimed (leased) cell, as a dead peer left it."""
    spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
    (cell,) = spec.cells()
    queue = make_queue(tmp_path)
    assert queue.enqueue(cell, run="t")
    (claim,) = queue.claim_batch(1)
    return queue, claim


class TestCounterStaleness:
    """The lease-staleness bugfix: liveness is the heartbeat counter inside
    the lease file, never the file's mtime or any wall clock."""

    def test_frozen_mtime_with_live_heartbeat_is_never_reclaimed(self, tmp_path):
        """Regression: an hour-old mtime (coarse NFS stamps, skewed client
        clocks) must not get a *live* worker's lease reclaimed as long as
        its heartbeat counter keeps advancing."""
        queue, claim = single_cell_claim(tmp_path)
        past = time.time() - 3600.0
        for _ in range(4):
            os.utime(claim.lease_path, (past, past))
            assert queue.reclaim_stale(lease_timeout_s=0.1, max_attempts=3) == 0
            with open(claim.lease_path, "ab") as handle:
                handle.write(b"\0")  # the worker's heartbeat
            time.sleep(0.15)  # a full timeout window passes between looks
        assert queue.active_leases() and not queue.pending_tasks()

    def test_frozen_counter_with_fresh_mtime_is_reclaimed(self, tmp_path):
        """The inverse direction: a constantly-touched mtime cannot hide a
        dead worker whose heartbeat counter stopped moving."""
        queue, claim = single_cell_claim(tmp_path)
        assert queue.reclaim_stale(lease_timeout_s=0.1, max_attempts=3) == 0
        time.sleep(0.15)
        os.utime(claim.lease_path)  # mtime says "touched just now"
        assert queue.reclaim_stale(lease_timeout_s=0.1, max_attempts=3) == 1
        (task,) = queue.pending_tasks()
        assert task.attempt == 2

    def test_reclaimed_lease_with_heartbeat_tail_still_parses(self, tmp_path):
        """Heartbeat bytes appended to the lease must be invisible to the
        next claimant: it reads the task's first line, the cell's JSON."""
        queue, claim = single_cell_claim(tmp_path)
        with open(claim.lease_path, "ab") as handle:
            handle.write(b"\0" * 17)
        assert queue.fail(claim, "RuntimeError: boom", max_attempts=3)
        (reclaimed,) = queue.claim_batch(1)
        assert reclaimed.cell.cache_key() == claim.cell.cache_key()

    def test_heartbeat_never_resurrects_a_removed_lease(self, tmp_path):
        path = str(tmp_path / "gone.lease")
        with open(path, "wb") as handle:
            handle.write(b"payload")
        heartbeat = _LeaseHeartbeat()
        heartbeat.start()
        try:
            heartbeat.hold([path], interval_s=0.05)
            assert wait_for_growth(path, len(b"payload")), "no beat arrived"
            os.unlink(path)  # completion / reclaim removes the lease
            time.sleep(0.2)
            assert not os.path.exists(path)
        finally:
            heartbeat.stop()

    def test_held_lease_keeps_gaining_bytes_across_a_batch(self, tmp_path):
        """One hold covers a whole claimed batch: while its batch-mates
        execute and complete one by one, the last lease keeps beating."""
        paths = [str(tmp_path / f"cell{i}.lease") for i in range(3)]
        for path in paths:
            with open(path, "wb") as handle:
                handle.write(b"payload")
        heartbeat = _LeaseHeartbeat()
        heartbeat.start()
        try:
            heartbeat.hold(paths, interval_s=0.05)
            last = paths[-1]
            for finished in paths[:-1]:
                size = os.path.getsize(last)
                assert wait_for_growth(last, size), "the last lease froze"
                os.unlink(finished)  # this batch-mate completed
            assert wait_for_growth(last, os.path.getsize(last))
            assert list(map(os.path.exists, paths)) == [False, False, True]
        finally:
            heartbeat.stop()

    def test_released_lease_gains_no_bytes(self, tmp_path):
        path = str(tmp_path / "done.lease")
        with open(path, "wb") as handle:
            handle.write(b"payload")
        heartbeat = _LeaseHeartbeat()
        heartbeat.start()
        try:
            heartbeat.hold([path], interval_s=0.05)
            assert wait_for_growth(path, len(b"payload")), "no beat arrived"
            heartbeat.release()
            size = os.path.getsize(path)
            time.sleep(0.3)  # six beat intervals
            assert os.path.getsize(path) == size
        finally:
            heartbeat.stop()

    def test_executor_enforces_lease_timeout_floor(self, tmp_path):
        with pytest.raises(ValueError, match="lease_timeout_s"):
            QueueExecutor(str(tmp_path / "q"), lease_timeout_s=0.5)
        QueueExecutor(
            str(tmp_path / "q"), lease_timeout_s=MIN_LEASE_TIMEOUT_S
        )  # the floor itself is accepted

    def test_heartbeat_append_cannot_create_a_missing_lease(self, tmp_path):
        """Regression: the append must open without O_CREAT, so a beat that
        races completion/reclaim can never resurrect the removed lease as
        an unpicklable ghost."""
        path = str(tmp_path / "gone.lease")
        assert _append_heartbeat_byte(path) is False
        assert not os.path.exists(path)
        with open(path, "wb") as handle:
            handle.write(b"x")
        assert _append_heartbeat_byte(path) is True
        assert os.path.getsize(path) == 2


def _unpicklable_payload():
    raise ValueError("corrupt payload")


class _ExplodesOnUnpickle:
    """Pickles fine; unpickling raises ValueError -- an exception *outside*
    pickle's own error types, as real corrupt bytes can produce."""

    def __reduce__(self):
        return (_unpicklable_payload, ())


class TestResultCacheCorruption:
    """Corrupt cache bytes can raise nearly any exception type on unpickle;
    none of them may escape the cache's read paths."""

    def test_peek_treats_arbitrary_unpickle_errors_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with open(cache.path("k"), "wb") as handle:
            handle.write(pickle.dumps(_ExplodesOnUnpickle()))
        assert cache.peek("k") is None
        assert os.path.exists(cache.path("k"))  # peek never quarantines

    def test_load_quarantines_arbitrary_unpickle_errors(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with open(cache.path("k"), "wb") as handle:
            handle.write(pickle.dumps(_ExplodesOnUnpickle()))
        assert cache.load("k") is None
        assert not os.path.exists(cache.path("k"))
        entries = sorted(os.listdir(cache.quarantine_dir()))
        assert [e for e in entries if e.endswith(".pkl")]
        (reason,) = [e for e in entries if e.endswith(".reason.txt")]
        with open(os.path.join(cache.quarantine_dir(), reason)) as handle:
            assert "ValueError: corrupt payload" in handle.read()


class TestPerRunReclaimSettings:
    """Regression for the multi-tenant reclaim bug: reclaim_stale must judge
    each lease by its own run's lease timeout and retry budget (resolved
    through runs/<run_id>.json), never the observing tenant's settings."""

    def claimed_cell(self, queue, *, run_id, lease_timeout_s, max_attempts):
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=max_attempts,
            lease_timeout_s=lease_timeout_s,
            run_id=run_id,
        )
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        assert queue.enqueue(cell, run=run_id)
        (claim,) = queue.claim_batch(1)
        return claim

    def test_short_timeout_tenant_cannot_reclaim_other_runs_live_lease(
        self, tmp_path
    ):
        """A coordinator with lease_timeout_s=0.05 sharing the directory
        with a run whose timeout is 60s must never see that run's lease --
        heartbeating every 20s, far slower than 0.05s -- as frozen."""
        queue = make_queue(tmp_path)
        self.claimed_cell(queue, run_id="slow-run",
                          lease_timeout_s=60.0, max_attempts=1)
        observer = WorkQueue(str(tmp_path / "queue"))  # the other tenant
        assert observer.reclaim_stale(lease_timeout_s=0.05, max_attempts=1) == 0
        time.sleep(0.15)  # far past the observer's own window
        assert observer.reclaim_stale(lease_timeout_s=0.05, max_attempts=1) == 0
        assert queue.active_leases() and not queue.pending_tasks()
        assert queue.failed_keys() == []  # no bogus terminal failure

    def test_reclaim_spends_the_runs_own_budget_not_the_observers(self, tmp_path):
        """The inverse: a lenient observer still reclaims on the lease's own
        run settings -- short window, single-attempt budget -> terminal."""
        queue = make_queue(tmp_path)
        claim = self.claimed_cell(queue, run_id="fast-run",
                                  lease_timeout_s=0.1, max_attempts=1)
        observer = WorkQueue(str(tmp_path / "queue"))
        assert observer.reclaim_stale(lease_timeout_s=999.0, max_attempts=99) == 0
        time.sleep(0.15)
        assert observer.reclaim_stale(lease_timeout_s=999.0, max_attempts=99) == 1
        assert observer.failed_keys() == [claim.name.key]
        assert not queue.active_leases() and not queue.pending_tasks()

    def test_runless_lease_falls_back_to_passed_settings(self, tmp_path):
        queue, _ = single_cell_claim(tmp_path)  # pre-service, no run record
        assert queue.reclaim_stale(lease_timeout_s=0.05, max_attempts=3) == 0
        time.sleep(0.1)
        assert queue.reclaim_stale(lease_timeout_s=0.05, max_attempts=3) == 1
        (task,) = queue.pending_tasks()
        assert task.attempt == 2


class TestRunLiveness:
    """Regression for the crashed-coordinator lockout: a run whose
    coordinator died without signal_stop must stop counting as live one
    observation window after its queue drains."""

    def register_run(self, queue, run_id, lease_timeout_s=0.1):
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=lease_timeout_s, run_id=run_id,
        )

    def test_frozen_coordinator_ages_out_of_live(self, tmp_path):
        queue = make_queue(tmp_path)
        self.register_run(queue, "dead-run")
        observer = WorkQueue(str(tmp_path / "queue"))
        assert observer.live_run_ids() == ["dead-run"]  # first observation
        time.sleep(0.15)  # beats counter frozen across the run's own window
        assert observer.live_run_ids() == []
        assert observer.active_run_ids() == ["dead-run"]  # raw flag untouched

    def test_heartbeats_keep_a_run_live(self, tmp_path):
        queue = make_queue(tmp_path)
        self.register_run(queue, "live-run")
        observer = WorkQueue(str(tmp_path / "queue"))
        for _ in range(3):
            assert observer.live_run_ids() == ["live-run"]
            queue.heartbeat_run("live-run")
            time.sleep(0.15)
        assert observer.live_run_ids() == ["live-run"]

    def test_outstanding_tasks_keep_a_run_live_without_heartbeats(self, tmp_path):
        queue = make_queue(tmp_path)
        self.register_run(queue, "busy-run")
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue.enqueue(cell, run="busy-run")
        observer = WorkQueue(str(tmp_path / "queue"))
        assert observer.live_run_ids() == ["busy-run"]
        time.sleep(0.15)
        assert observer.live_run_ids() == ["busy-run"]

    def test_worker_honors_stop_despite_a_crashed_coordinators_run(self, tmp_path):
        """End to end: one crashed coordinator's forever-active record used
        to hold every worker to its full drain timeout after the healthy
        tenant's sweep ended."""
        queue = make_queue(tmp_path)
        self.register_run(queue, "crashed-run")  # never heartbeats again
        self.register_run(queue, "other-run", lease_timeout_s=30.0)
        done: list[object] = []

        def drain() -> None:
            done.append(run_queue_worker(
                str(tmp_path / "queue"), poll_interval_s=0.02,
                drain_timeout_s=60.0,
            ))

        worker = threading.Thread(target=drain)
        worker.start()
        time.sleep(0.1)  # let the worker observe the frozen run once
        queue.signal_stop("other-run")  # some healthy tenant finishing
        worker.join(timeout=10.0)
        assert not worker.is_alive(), (
            "worker ignored STOP while a dead coordinator's run stayed active"
        )
        assert done and done[0].executed == 0


class TestLocalWorkerStartupStop:
    """Regression for the cached-re-run stall: a coordinator whose grid is
    fully cached (or very short) retires its run before the local workers
    it spawned are up. Such a worker must not take the retired run for a
    previous sweep's leftover and poll until the coordinator's 30 s join
    timeout; a bare ``repro sweep-worker`` (test_executors.py,
    test_stale_stop_marker_from_previous_sweep_is_ignored) keeps that rule."""

    def finished_run(self, tmp_path, run_id):
        queue = make_queue(tmp_path)
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=5.0, run_id=run_id,
        )
        queue.signal_stop(run_id)  # the coordinator is already done
        return queue

    def test_worker_spawned_after_its_coordinators_stop_exits_at_once(
        self, tmp_path
    ):
        queue = self.finished_run(tmp_path, "run-r")
        worker = threading.Thread(
            target=_local_worker_entry,
            args=(queue.queue_dir, 0.02, "run-r",
                  multiprocessing.Event(), multiprocessing.Event()),
            daemon=True,  # a regression must fail the test, not hang pytest
        )
        start = time.monotonic()
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), (
            "local worker treated its own coordinator's ended run as stale"
        )
        assert time.monotonic() - start < 2.0  # a few poll intervals

    def test_another_runs_leftover_marker_is_still_stale(self, tmp_path):
        """A run retired before the worker started ends nothing: with only
        that leftover on disk the worker waits for a run of its own, and
        leaves once one has come and gone."""
        queue = self.finished_run(tmp_path, "earlier-run")
        worker = threading.Thread(
            target=run_queue_worker, args=(queue.queue_dir,),
            kwargs=dict(poll_interval_s=0.02, drain_timeout_s=60.0),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=0.5)
        assert worker.is_alive()
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=5.0, run_id="run-r",
        )
        queue.signal_stop("run-r")
        worker.join(timeout=5.0)
        assert not worker.is_alive()

    def test_ten_cached_queue_reruns_stay_fast(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        executor = QueueExecutor(str(tmp_path / "queue"), num_workers=2, **FAST)
        run_sweep(spec, executor=executor)
        for _ in range(10):
            start = time.monotonic()
            rerun = run_sweep(spec, executor=executor)
            assert time.monotonic() - start < 5.0
            assert rerun.cells_from_cache == len(spec.cells())

    def test_fully_cached_queue_sweep_starts_no_worker(
        self, tmp_path, monkeypatch
    ):
        """Regression: with every result cached, the coordinator used to
        register a run, prune and fork its local workers for nothing."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        cache_dir = str(tmp_path / "results")
        run_sweep(spec, cache_dir=cache_dir, executor=InlineExecutor())
        started = []
        monkeypatch.setattr(multiprocessing, "Process",
                            lambda *args, **kwargs: started.append(kwargs))
        queue_dir = tmp_path / "queue"
        executor = QueueExecutor(str(queue_dir), num_workers=2)
        rerun = run_sweep(spec, cache_dir=cache_dir, executor=executor)
        assert rerun.cells_from_cache == len(spec.cells())
        assert started == []
        assert not (queue_dir / "runs").exists()


class TestPruneRetired:
    def test_prune_retired_removes_retired_records_only(self, tmp_path):
        """A new sweep generation garbage-collects what no longer governs
        anything: inactive task-less run records and exited workers. A
        crashed sweep's record (inactive but with tasks left) survives --
        workers still resolve those tasks' settings through it."""
        queue = make_queue(tmp_path)
        for run_id in ("retired-run", "leftover-run"):
            queue.write_config(
                cache_dir=queue.default_results_dir(), max_attempts=3,
                lease_timeout_s=5.0, run_id=run_id,
            )
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue.enqueue(cell, run="leftover-run")
        queue.signal_stop("retired-run")
        queue.signal_stop("leftover-run")
        for worker, status in (("w-gone", "exited"), ("w-live", "idle")):
            queue._atomic_write_json(
                os.path.join(queue.registry_dir, f"{worker}.json"),
                {"worker": worker, "status": status},
            )
        queue.prune_retired()
        assert [run["run_id"] for run in queue.list_runs()] == ["leftover-run"]
        assert [w["worker"] for w in queue.registry_records()] == ["w-live"]


class TestJitteredPolling:
    """The thundering-herd bugfix: poll phase comes from the worker id, so
    it is deterministic (repro-lint clean) yet spread across a fleet."""

    def test_jitter_is_deterministic_per_worker(self):
        assert _poll_jitter("host-1234") == _poll_jitter("host-1234")
        assert 0.0 <= _poll_jitter("host-1234") < 1.0

    def test_jitter_spreads_a_fleet(self):
        values = {_poll_jitter(f"host-{pid}") for pid in range(64)}
        assert len(values) == 64  # no two workers share a poll phase

    def test_backoff_doubles_and_caps(self):
        delays = [
            _poll_delay(0.1, jitter=0.5, idle_polls=n, empty_but_leased=False)
            for n in (1, 2, 3, 4, 5, 50)
        ]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8, 0.8, 0.8])

    def test_empty_but_leased_caps_immediately(self):
        """Nothing claimable but peers still executing: rescans can only
        discover lease-timeout-scale events, so the first idle poll already
        sleeps at the full backoff cap."""
        assert _poll_delay(
            0.1, jitter=0.5, idle_polls=1, empty_but_leased=True
        ) == pytest.approx(0.8)

    def test_two_workers_never_sleep_in_lockstep(self):
        a = _poll_delay(0.1, _poll_jitter("host-1"), 1, empty_but_leased=False)
        b = _poll_delay(0.1, _poll_jitter("host-2"), 1, empty_but_leased=False)
        assert a != b


class TestEventDrivenDrain:
    """The drain-tail fix: back-off paces the ``tasks/`` rescan only; an
    idle worker reads the active run ids every base interval, so a drained
    sweep ends within one base interval of its last cell."""

    def test_poll_interval_that_overflows_a_wait_rejected(self, tmp_path):
        """Regression: 1e300 is finite, so it passed, and the idle wait
        then died with an OverflowError. The worker rejects it before it
        touches the queue directory or starts its heartbeat thread."""
        threads = threading.active_count()
        with pytest.raises(ValueError, match="poll_interval_s must be finite"):
            run_queue_worker(str(tmp_path / "queue"), poll_interval_s=1e300,
                             drain_timeout_s=0.1)
        assert threading.active_count() == threads
        assert not (tmp_path / "queue").exists()

    def test_backed_off_worker_sees_stop_within_one_base_interval(
        self, tmp_path, monkeypatch
    ):
        """Regression: a worker idling while a peer holds a lease used to
        sleep out the full 8x back-off (0.8 s here) before it looked for
        the sweep's end, and the coordinator's join waited for it."""
        monkeypatch.setattr(worker_module, "_poll_jitter", lambda worker: 0.5)
        base_s = 0.1  # poll_interval_s * (0.5 + jitter)
        queue, claim = single_cell_claim(tmp_path)  # the peer's live lease
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=30.0, run_id=claim.name.run,
        )
        summaries = []
        thread = threading.Thread(target=lambda: summaries.append(
            run_queue_worker(str(tmp_path / "queue"), poll_interval_s=0.1,
                             drain_timeout_s=30.0)))
        thread.start()
        time.sleep(0.3)  # the worker is now inside its 0.8 s back-off
        cache = ResultCache(queue.default_results_dir())
        queue.complete(claim, cache, claim.cell.execute(), 0.0, seq=1)
        queue.signal_stop(claim.name.run)
        signalled = time.monotonic()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert time.monotonic() - signalled < 2.5 * base_s
        assert summaries[0].executed == 0

    @staticmethod
    def runs(tmp_path, active, retired):
        queue = make_queue(tmp_path)
        for run_id in active + retired:
            queue.write_config(
                cache_dir=queue.default_results_dir(), max_attempts=3,
                lease_timeout_s=5.0, run_id=run_id,
            )
        for run_id in retired:
            queue.signal_stop(run_id)
        return queue

    @pytest.mark.parametrize("retired", [[], ["old-run"]])
    def test_idle_wait_sleeps_out_an_unchanged_run_set(self, tmp_path, retired):
        """Runs that stay active, and runs retired all along, never cut the
        wait short -- else a worker that must keep serving a live run
        would rescan at full rate."""
        queue = self.runs(tmp_path, ["live-run"], retired)
        start = time.monotonic()
        assert _idle_wait(queue, 0.2, 0.05, {"live-run"}) is False
        assert time.monotonic() - start >= 0.2

    @pytest.mark.parametrize("scanned", [set(), {"live-run", "ended-run"}])
    def test_idle_wait_returns_when_the_active_runs_change(
        self, tmp_path, scanned
    ):
        """A run that registered or ended since the last scan ends the wait
        within a slice."""
        queue = self.runs(tmp_path, ["live-run"], ["ended-run"])
        start = time.monotonic()
        assert _idle_wait(queue, 5.0, 0.05, scanned) is True
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("delay_s", [0.05, 0.12, 0.3])
    def test_idle_wait_reads_the_runs_once_per_slice(
        self, tmp_path, monkeypatch, delay_s
    ):
        """No busy spin: at most ceil(delay / base) + 1 reads of runs/."""
        queue = make_queue(tmp_path)
        reads = []
        monkeypatch.setattr(queue, "active_run_ids",
                            lambda: reads.append(1) or [])
        slice_s = 0.05
        assert _idle_wait(queue, delay_s, slice_s, set()) is False
        assert 1 <= len(reads) <= math.ceil(delay_s / slice_s) + 1

    def test_a_stop_event_ends_the_wait_at_once(self, tmp_path):
        """A local worker's wait ends as its coordinator sets ``stop``
        (after retiring its run), not at the end of the slice."""
        queue = self.runs(tmp_path, ["live-run"], [])
        stop = multiprocessing.Event()

        def coordinator_ends():
            queue.signal_stop("live-run")
            stop.set()

        timer = threading.Timer(0.1, coordinator_ends)
        start = time.monotonic()
        timer.start()
        try:
            assert _idle_wait(queue, 30.0, 10.0, {"live-run"}, stop) is True
        finally:
            timer.cancel()
        assert time.monotonic() - start < 5.0

    def test_a_set_stop_event_never_spins(self, tmp_path, monkeypatch):
        """``stop`` stays set: with the run set unchanged (another run still
        live) it cuts one slice short, and the wait sleeps out the rest --
        at most ceil(delay / base) + 1 reads of runs/."""
        queue = make_queue(tmp_path)
        reads = []
        monkeypatch.setattr(queue, "active_run_ids",
                            lambda: reads.append(1) or ["other-run"])
        stop = multiprocessing.Event()
        stop.set()
        start = time.monotonic()
        assert _idle_wait(queue, 0.3, 0.05, {"other-run"}, stop) is False
        assert time.monotonic() - start >= 0.3
        assert 1 <= len(reads) <= math.ceil(0.3 / 0.05) + 1


class TestTaskNames:
    def test_service_format_roundtrip(self):
        name = _TaskName(key="ab" * 32, attempt=2, run="deadbeef")
        assert name.stem() == "ab" * 32 + ".rdeadbeef.a2"
        assert _TaskName.parse(name.stem() + ".task") == name

    def test_pre_service_format_does_not_parse(self):
        """The run-less PR 5 name is gone: one task-name generation."""
        assert _TaskName.parse("cd" * 32 + ".a3.task") is None

    def test_priority_format_does_not_parse(self):
        """Nor does a name that still carries a ``.p<priority>`` field: its
        key would not be a hex digest."""
        assert _TaskName.parse("cd" * 32 + ".p00000005.rdeadbeef.a3.task") is None

    @given(
        key=st.text("0123456789abcdef", min_size=1, max_size=64),
        run=st.text(string.ascii_letters + string.digits + "_-", min_size=1,
                    max_size=40),
        attempt=st.integers(1, 10**6),
    )
    def test_every_valid_run_id_roundtrips(self, key, run, attempt):
        name = _TaskName(key=key, attempt=attempt, run=run)
        assert _TaskName.parse(name.stem() + ".task") == name
        assert _TaskName.parse(name.stem() + ".lease") == name

    @pytest.mark.parametrize("run", ["x.r1", "team/one", "", "a b", "r\n"])
    def test_run_ids_outside_the_alphabet_are_rejected(self, tmp_path, run):
        """``x.r1`` would parse back as another (key, run) pair and strand
        its result under a garbage key; ``team/one`` leaves the directory."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = make_queue(tmp_path)
        with pytest.raises(ValueError, match="run id"):
            queue.enqueue(cell, run=run)
        with pytest.raises(ValueError, match="run id"):
            queue.write_config(
                cache_dir=queue.default_results_dir(), max_attempts=3,
                lease_timeout_s=5.0, run_id=run,
            )
        assert queue.pending_tasks() == [] and queue.list_runs() == []


class TestBatchLeases:
    def test_claim_batch_claims_up_to_limit(self, tmp_path):
        cells = tiny_spec().cells()
        queue = make_queue(tmp_path)
        for cell in cells:
            assert queue.enqueue(cell, run="r1")
        claims = queue.claim_batch(3)
        assert len(claims) == 3
        assert len(queue.active_leases()) == 3
        assert len(queue.pending_tasks()) == len(cells) - 3

    def test_capped_worker_never_strands_a_batch_tail(self, tmp_path):
        """max_cells=1 with a large published lease_batch must execute one
        cell and leave the rest claimable, not leased."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0, 1))
        queue = make_queue(tmp_path)
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3,
            lease_timeout_s=5.0,
            run_id="run-1",
            lease_batch=8,
        )
        for cell in spec.cells():
            queue.enqueue(cell, run="run-1")
        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02,
            drain_timeout_s=0.2, max_cells=1,
        )
        assert summary.executed == 1
        assert queue.active_leases() == []
        assert len(queue.pending_tasks()) == 1

    def test_default_batch_is_the_smallest_active_runs(
        self, tmp_path, monkeypatch
    ):
        """Regression: one tenant's lease_batch used to govern every
        tenant's cells (the last coordinator to write the shared settings
        won). With runs asking for 1 and 8, a worker without its own
        lease_batch claims at most one cell per scan."""
        queue = make_queue(tmp_path)
        for run_id, batch in (("one-run", 1), ("eight-run", 8)):
            queue.write_config(
                cache_dir=queue.default_results_dir(), max_attempts=3,
                lease_timeout_s=5.0, run_id=run_id, lease_batch=batch,
            )
        for cell in tiny_spec(algorithms=("adpsgd",), seeds=(0, 1)).cells():
            queue.enqueue(cell, run="eight-run")
        claimed = []
        claim_batch = WorkQueue.claim_batch

        def spy(self, limit, rotation=None):
            claims = claim_batch(self, limit, rotation)
            claimed.append(len(claims))
            return claims

        monkeypatch.setattr(WorkQueue, "claim_batch", spy)
        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.2,
        )
        assert summary.executed == 2
        assert max(claimed) == 1


class TestRunRecords:
    def test_task_of_an_unregistered_run_fails_terminally(self, tmp_path):
        """A task whose run has no record has no cache directory to land
        in: it fails once, naming the run, and never runs under another
        run's settings."""
        (cell,) = tiny_spec(algorithms=("adpsgd",), seeds=(0,)).cells()
        queue = make_queue(tmp_path)
        queue.write_config(
            cache_dir=str(tmp_path / "registered-cache"), max_attempts=3,
            lease_timeout_s=5.0, run_id="registered-run",
        )
        queue.enqueue(cell, run="ghost-run")
        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.2,
        )
        assert (summary.executed, summary.failed) == (0, 1)
        failure = queue.read_failure(cell.cache_key())
        assert "ghost-run" in failure["error"]
        assert failure["attempts"] == 1
        assert queue.pending_tasks() == [] and queue.active_leases() == []
        assert ResultCache(str(tmp_path / "registered-cache")).load(
            cell.cache_key()) is None


class TestKeyOrderScheduling:
    def test_claims_within_a_run_go_by_key(self, tmp_path):
        """No cost guess: a run's cells are claimed in key order, whatever
        their algorithm and whatever order they were enqueued in."""
        cells = tiny_spec().cells()
        queue = make_queue(tmp_path)
        for cell in reversed(cells):
            queue.enqueue(cell, run="r")
        claims = queue.claim_batch(len(cells))
        assert [claim.name.key for claim in claims] == sorted(
            cell.cache_key() for cell in cells)


class TestFairShare:
    def test_single_worker_alternates_between_runs(self, tmp_path):
        """One worker draining two concurrent sweeps must interleave them
        (rotation cursor), not drain whichever run id sorts first."""
        cells = tiny_spec().cells()
        queue = make_queue(tmp_path)
        for cell in cells[:2]:
            queue.enqueue(cell, run="aaa")
        for cell in cells[2:]:
            queue.enqueue(cell, run="bbb")
        rotation = None
        order = []
        while True:
            claims = queue.claim_batch(1, rotation=rotation)
            if not claims:
                break
            rotation = claims[0].name.run
            order.append(rotation)
        assert order == ["aaa", "bbb", "aaa", "bbb"]

    def test_batch_claim_interleaves_runs(self, tmp_path):
        cells = tiny_spec().cells()
        queue = make_queue(tmp_path)
        for cell in cells[:2]:
            queue.enqueue(cell, run="aaa")
        for cell in cells[2:]:
            queue.enqueue(cell, run="bbb")
        claims = queue.claim_batch(4)
        assert [c.name.run for c in claims] == ["aaa", "bbb", "aaa", "bbb"]


class TestWorkerRegistry:
    def test_registry_records_worker_lifecycle(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = make_queue(tmp_path)
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3,
            lease_timeout_s=5.0,
            run_id="run-1",
        )
        queue.enqueue(cell, run="run-1")
        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.2
        )
        (record,) = queue.registry_records()
        assert record["worker"] == summary.worker
        assert record["pid"] == os.getpid()
        assert record["status"] == "exited"
        assert record["current_cell"] is None
        assert record["cells_completed"] == 1
        assert record["cells_failed"] == 0
        assert record["cells_skipped"] == 0
        assert record["busy_s"] == summary.busy_s > 0.0
        assert record["idle_s"] == summary.idle_s > 0.0

    def test_busy_and_idle_fit_in_the_worker_lifetime(self, tmp_path):
        """busy_s / idle_s are disjoint slices of the worker's wall-clock."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0, 1))
        queue = make_queue(tmp_path)
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=5.0, run_id="run-1",
        )
        for cell in spec.cells():
            queue.enqueue(cell, run="run-1")
        start = time.monotonic()
        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.2
        )
        lifetime = time.monotonic() - start
        assert summary.executed == 2
        assert summary.busy_s > 0.0 and summary.idle_s > 0.0
        assert summary.busy_s + summary.idle_s <= lifetime

    def test_drained_two_worker_sweep_reports_busy_and_idle(self, tmp_path):
        run_sweep(
            tiny_spec(),
            executor=QueueExecutor(str(tmp_path / "queue"), num_workers=2,
                                   **FAST),
        )
        records = make_queue(tmp_path).registry_records()
        assert len(records) == 2
        for record in records:
            assert record["status"] == "exited"
            assert record["busy_s"] >= 0.0 and record["idle_s"] >= 0.0

    def test_format_worker_health_renders_fleet(self):
        assert format_worker_health([]) == ""
        line = format_worker_health([
            {"worker": "host-1", "status": "executing",
             "current_cell": "adpsgd/s0/het4w", "cells_completed": 3,
             "cells_failed": 1},
            {"worker": "host-2", "status": "idle", "cells_completed": 2},
        ])
        assert line.startswith("2 worker(s): ")
        assert "host-1 executing adpsgd/s0/het4w (3 done, 1 failed)" in line
        assert "host-2 idle (2 done)" in line


class TestPerCellBrokerCost:
    """What a worker pays the filesystem around each cell: one registry
    write (the cell's start), one heartbeat thread for the whole call, and
    one parse per task name."""

    def enqueued(self, tmp_path, cells):
        queue = make_queue(tmp_path)
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=30.0, run_id="run-1",  # no beat in these tests
        )
        for cell in cells:
            assert queue.enqueue(cell, run="run-1")
        return queue

    def test_worker_budget_is_three_writes_and_one_thread(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import broker, cache

        cells = tiny_spec().cells()
        queue = self.enqueued(tmp_path, cells)
        written, started = [], []

        def counting(write):
            def wrapper(directory, path, *args):
                written.append(path)
                return write(directory, path, *args)
            return wrapper

        monkeypatch.setattr(broker, "_atomic_write",
                            counting(broker._atomic_write))
        monkeypatch.setattr(cache, "_atomic_write",
                            counting(cache._atomic_write))
        thread_start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda thread: (
            started.append(thread), thread_start(thread))[-1])
        summary = run_queue_worker(queue.queue_dir, poll_interval_s=0.02,
                                   drain_timeout_s=0.0)
        n = len(cells)
        assert summary.executed == n
        # Per cell: its registry record on start, its result, its
        # telemetry. O(1) on top: going idle and exiting.
        assert len(written) <= 3 * n + 2, written
        registry_writes = [path for path in written
                           if os.path.dirname(path) == queue.registry_dir]
        assert len(registry_writes) <= n + 2, registry_writes
        assert len(started) == 1

    def test_drain_writes_only_executing_idle_and_exited(
        self, tmp_path, monkeypatch
    ):
        statuses = []
        write_json = WorkQueue._atomic_write_json

        def recording(queue, path, payload):
            if os.path.dirname(path) == queue.registry_dir:
                statuses.append(payload["status"])
            write_json(queue, path, payload)

        monkeypatch.setattr(WorkQueue, "_atomic_write_json", recording)
        cells = tiny_spec(algorithms=("adpsgd",)).cells()
        queue = self.enqueued(tmp_path, cells)
        worker = threading.Thread(
            target=run_queue_worker, args=(queue.queue_dir,),
            kwargs=dict(poll_interval_s=0.02, drain_timeout_s=30.0),
            daemon=True,
        )
        worker.start()
        deadline = time.monotonic() + 30.0
        while "idle" not in statuses and time.monotonic() < deadline:
            time.sleep(0.01)
        queue.signal_stop("run-1")  # the sweep ends: the worker drains out
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert statuses == ["executing"] * len(cells) + ["idle", "exited"]

    def test_parse_cache_tracks_the_current_listing(
        self, tmp_path, monkeypatch
    ):
        queue = make_queue(tmp_path)
        parses = []
        parse = _TaskName.parse.__func__
        monkeypatch.setattr(_TaskName, "parse", classmethod(
            lambda cls, filename: (parses.append(filename),
                                   parse(cls, filename))[-1]))

        def task_file(index):
            name = _TaskName(key=f"{index:064x}", attempt=1, run="r")
            path = queue._task_path(name)
            with open(path, "wb") as handle:
                handle.write(b"spec")
            return name, path

        window = []
        for index in range(200):  # a changing tasks/ of at most 5 names
            window.append(task_file(index))
            if len(window) > 5:
                os.unlink(window.pop(0)[1])
            parses.clear()
            assert queue.pending_tasks() == [name for name, _ in window]
            assert parses == [os.path.basename(window[-1][1])]
            assert len(queue._parsed[queue.tasks_dir]) == len(window)
        parses.clear()
        queue.pending_tasks()
        assert parses == []  # an unchanged listing parses nothing


class TestStatusSnapshot:
    def test_snapshot_reports_depths_runs_and_workers(self, tmp_path):
        cells = tiny_spec().cells()
        queue = make_queue(tmp_path)
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3,
            lease_timeout_s=5.0,
            run_id="run-1",
        )
        for cell in cells[:3]:
            queue.enqueue(cell, run="run-1")
        queue.claim_batch(1)
        snapshot = queue.status_snapshot()
        assert snapshot["pending"] == 2
        assert snapshot["leased"] == 1
        assert snapshot["completed"] == 0
        assert snapshot["failed"] == []
        assert snapshot["reclaimed"] == 0
        assert "stop" not in snapshot
        (run,) = snapshot["runs"]
        assert run["run_id"] == "run-1"
        assert run["active"] is True
        assert run["pending"] == 2 and run["leased"] == 1
        assert run["retrying"] == run["quarantined"] == 0
        assert snapshot["workers"] == []
        json.dumps(snapshot)  # the CLI prints this verbatim

    def test_snapshot_counts_retries_quarantines_and_reclaims(self, tmp_path):
        """After a simulated reclaim: the requeued task reads as retrying
        (attempt 2 in its name), a corrupt result moved aside reads as
        quarantined under its run, and the exited reclaimer's
        cells_reclaimed sums into the top-level count."""
        cells = tiny_spec().cells()
        queue = make_queue(tmp_path)
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=0.1, run_id="run-1",
        )
        for cell in cells[:2]:
            queue.enqueue(cell, run="run-1")
        queue.claim_batch(1)  # ... by a worker that then died silently
        reclaimer = WorkQueue(queue.queue_dir)
        assert reclaimer.reclaim_stale(0.1, 3) == 0
        time.sleep(0.15)
        assert reclaimer.reclaim_stale(0.1, 3) == 1
        queue._atomic_write_json(
            os.path.join(queue.registry_dir, "reclaimer.json"),
            {"worker": "reclaimer", "status": "exited", "cells_reclaimed": 1},
        )
        cache = ResultCache(queue.default_results_dir())
        with open(cache.path(cells[2].cache_key()), "wb") as handle:
            handle.write(b"\x80\x04 torn result bytes")
        assert cache.load(cells[2].cache_key()) is None  # quarantined
        snapshot = queue.status_snapshot()
        assert snapshot["reclaimed"] == 1
        (run,) = snapshot["runs"]
        assert (run["pending"], run["leased"]) == (2, 0)
        assert run["retrying"] == 1
        assert run["quarantined"] == 1

    def test_pre_service_tasks_appear_as_runless_group(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = make_queue(tmp_path)
        queue.enqueue(cell, run="t")  # a run nobody registered
        (run,) = queue.status_snapshot()["runs"]
        assert run == {"run_id": "t", "active": None, "coordinator": None,
                       "pending": 1, "leased": 0, "retrying": 0,
                       "quarantined": 0}

    def test_stop_deactivates_only_its_run(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=5.0, run_id="run-a",
        )
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=5.0, run_id="run-b",
        )
        assert sorted(queue.active_run_ids()) == ["run-a", "run-b"]
        queue.signal_stop("run-a")
        assert queue.active_run_ids() == ["run-b"]
        # The run records are the whole on-disk state of both sweeps.
        assert sorted(os.listdir(queue.queue_dir)) == [
            "failed", "leases", "meta", "registry", "runs", "tasks"]


class TestStreamingAggregation:
    def test_inline_stream_snapshots_match_batch_aggregation(self, tmp_path):
        spec = tiny_spec()
        snapshots: list[SweepResult] = []
        result = run_sweep(
            spec, executor=InlineExecutor(),
            cache_dir=str(tmp_path / "cache"), stream=snapshots.append,
        )
        total = len(spec.cells())
        # One snapshot per finished cell plus the final done=True snapshot.
        assert [len(s) for s in snapshots] == list(range(1, total + 1)) + [total]
        assert [s.done for s in snapshots] == [False] * total + [True]
        assert {s.total for s in snapshots} == {total}
        for snapshot in snapshots:
            # A partial table equals the batch aggregation run on the same
            # subset of outcomes -- one code path, incremental or not.
            assert_rows_equal(
                metric_rows(aggregate_sweep(snapshot)),
                metric_rows(aggregate_sweep(SweepResult(spec, snapshot.outcomes))),
            )
        # The final streamed table is the batch table, bit for bit.
        assert_rows_equal(
            metric_rows(aggregate_sweep(snapshots[-1])),
            metric_rows(aggregate_sweep(result)),
        )
        # The last snapshot is the result; only the snapshots before it
        # summarize as in progress.
        assert snapshots[-1] is result
        assert [s.summary().get("in_progress") for s in snapshots] == (
            [True] * total + [None]
        )

    def test_queue_stream_partial_tables_over_half_drained_queue(self, tmp_path):
        spec = tiny_spec()
        snapshots: list[SweepResult] = []
        result = run_sweep(
            spec,
            executor=QueueExecutor(str(tmp_path / "queue"), num_workers=1, **FAST),
            stream=snapshots.append,
        )
        assert snapshots and snapshots[-1].done
        partials = [s for s in snapshots if not s.done]
        assert partials, "queue backend streamed no mid-drain snapshots"
        for snapshot in partials:
            assert 0 < len(snapshot) <= snapshot.total == len(spec.cells())
            assert_rows_equal(
                metric_rows(aggregate_sweep(snapshot)),
                metric_rows(aggregate_sweep(SweepResult(spec, snapshot.outcomes))),
            )
        assert_rows_equal(
            metric_rows(aggregate_sweep(snapshots[-1])),
            metric_rows(aggregate_sweep(result)),
        )
        # Streaming is observational: the streamed sweep equals inline.
        inline = run_sweep(spec, executor=InlineExecutor())
        for ours, theirs in zip(result.outcomes, inline.outcomes):
            assert_results_identical(ours.result, theirs.result)

    def test_cached_sweep_streams_only_the_final_snapshot(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        cache_dir = str(tmp_path / "cache")
        run_sweep(spec, executor=InlineExecutor(), cache_dir=cache_dir)
        snapshots: list[SweepResult] = []
        run_sweep(
            spec, executor=InlineExecutor(), cache_dir=cache_dir,
            stream=snapshots.append,
        )
        (final,) = snapshots
        assert final.done and len(final) == final.total == 1


class TestConcurrentSweeps:
    def test_two_coordinators_share_one_queue_dir_bit_identically(self, tmp_path):
        """The two-tenant contract: two sweeps, one queue directory, one
        shared fleet -- both complete, both bit-identical to inline, and
        the registry and run records wind down cleanly."""
        spec_a = tiny_spec(algorithms=("adpsgd",))
        spec_b = tiny_spec(algorithms=("allreduce",))
        queue_dir = str(tmp_path / "queue")
        results: dict[str, object] = {}
        errors: list[BaseException] = []

        def coordinate(name: str, spec) -> None:
            try:
                results[name] = run_sweep(
                    spec,
                    executor=QueueExecutor(
                        queue_dir, num_workers=1, lease_batch=2, **FAST
                    ),
                )
            except BaseException as error:  # surfaced after join
                errors.append(error)

        threads = [
            threading.Thread(target=coordinate, args=("a", spec_a)),
            threading.Thread(target=coordinate, args=("b", spec_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        assert not errors, errors
        assert set(results) == {"a", "b"}

        for spec, name in ((spec_a, "a"), (spec_b, "b")):
            inline = run_sweep(spec, executor=InlineExecutor())
            for ours, theirs in zip(results[name].outcomes, inline.outcomes):
                assert ours.cell == theirs.cell
                assert_results_identical(ours.result, theirs.result)

        queue = WorkQueue(queue_dir)
        snapshot = queue.status_snapshot()
        assert snapshot["pending"] == 0 and snapshot["leased"] == 0
        assert len(snapshot["runs"]) == 2
        assert all(run["active"] is False for run in snapshot["runs"])
        assert snapshot["workers"], "local workers never registered"
        assert all(w["status"] == "exited" for w in snapshot["workers"])
        # Telemetry carries (run, seq): each completed cell is attributed
        # to exactly one of the two runs.
        run_ids = {run["run_id"] for run in snapshot["runs"]}
        for cell in spec_a.cells() + spec_b.cells():
            meta = queue.read_meta(cell.cache_key())
            assert meta is not None
            assert meta["run"] in run_ids
            assert meta["seq"] >= 1

    def test_one_coordinator_stopping_does_not_strand_the_other(self, tmp_path):
        """A worker seeing one run end while another registered run is
        still active must keep serving that run."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = make_queue(tmp_path)
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=5.0, run_id="done-run",
        )
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=5.0, run_id="live-run",
        )
        queue.enqueue(cell, run="live-run")
        queue.signal_stop("done-run")  # the other coordinator finished
        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.3
        )
        assert summary.executed == 1  # served live-run despite the marker
        assert ResultCache(queue.default_results_dir()).load(
            cell.cache_key()
        ) is not None


class TestMakeExecutorService:
    def test_lease_batch_flows_through(self, tmp_path):
        executor = make_executor(
            "queue", queue_dir=str(tmp_path / "q"), lease_batch=4
        )
        assert executor.lease_batch == 4

    def test_invalid_lease_batch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="lease_batch"):
            QueueExecutor(str(tmp_path / "q"), lease_batch=0)

    @pytest.mark.parametrize("poll_interval_s", [0.0, -1.0, float("nan")])
    def test_poll_interval_that_would_spin_rejected(
        self, tmp_path, poll_interval_s
    ):
        with pytest.raises(ValueError, match="poll_interval_s"):
            QueueExecutor(str(tmp_path / "q"), poll_interval_s=poll_interval_s)
        with pytest.raises(ValueError, match="poll_interval_s"):
            run_queue_worker(str(tmp_path / "q"),
                             poll_interval_s=poll_interval_s)

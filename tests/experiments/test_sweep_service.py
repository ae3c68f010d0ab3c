"""Service-layer tests for the long-lived sweep queue.

The broker's PR 5 contract (claim/complete/fail/reclaim) lives in
test_executors.py; this file covers the service features layered on top:
counter-based lease staleness (the mtime bugfix), per-run reclaim
settings (the multi-tenant reclaim bugfix), coordinator run liveness (the
crashed-coordinator STOP lockout bugfix), deterministic jittered polling
(the thundering-herd bugfix), batch leases, priority + fair-share
scheduling across concurrent sweeps, the worker registry, and streaming
aggregation.
"""

import json
import math
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
from repro.algorithms.registry import trainer_names
from repro.experiments.harness import _RELATIVE_ALGORITHM_COST, estimate_cell_cost
from repro.experiments.reporting import format_worker_health
from repro.experiments.sweeps import (
    SweepProgress,
    aggregate_outcomes,
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


def single_cell_claim(tmp_path):
    """A queue holding one claimed (leased) cell, as a dead peer left it."""
    spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
    (cell,) = spec.cells()
    queue = make_queue(tmp_path)
    assert queue.enqueue(cell, run="t")
    claim = queue.claim()
    assert claim is not None
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

    def test_reclaimed_lease_with_heartbeat_tail_still_unpickles(self, tmp_path):
        """Heartbeat bytes appended to the lease must be invisible to the
        next claimant: pickle stops at its STOP opcode."""
        queue, claim = single_cell_claim(tmp_path)
        with open(claim.lease_path, "ab") as handle:
            handle.write(b"\0" * 17)
        queue.requeue(claim)
        reclaimed = queue.claim()
        assert reclaimed is not None
        assert reclaimed.cell.cache_key() == claim.cell.cache_key()

    def test_heartbeat_never_resurrects_a_removed_lease(self, tmp_path):
        path = str(tmp_path / "gone.lease")
        with open(path, "wb") as handle:
            handle.write(b"payload")
        with _LeaseHeartbeat([path], interval_s=0.05):
            deadline = time.monotonic() + 5.0
            while (os.path.getsize(path) == len(b"payload")
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert os.path.getsize(path) > len(b"payload"), "no beat arrived"
            os.unlink(path)  # completion / reclaim removes the lease
            time.sleep(0.2)
            assert not os.path.exists(path)

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
        claim = queue.claim()
        assert claim is not None
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
    """Regression for the crashed-coordinator STOP lockout: a run whose
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
        assert observer.live_run_ids(5.0) == ["dead-run"]  # first observation
        time.sleep(0.15)  # beats counter frozen across the run's own window
        assert observer.live_run_ids(5.0) == []
        assert observer.active_run_ids() == ["dead-run"]  # raw flag untouched

    def test_heartbeats_keep_a_run_live(self, tmp_path):
        queue = make_queue(tmp_path)
        self.register_run(queue, "live-run")
        observer = WorkQueue(str(tmp_path / "queue"))
        for _ in range(3):
            assert observer.live_run_ids(5.0) == ["live-run"]
            queue.heartbeat_run("live-run")
            time.sleep(0.15)
        assert observer.live_run_ids(5.0) == ["live-run"]

    def test_outstanding_tasks_keep_a_run_live_without_heartbeats(self, tmp_path):
        queue = make_queue(tmp_path)
        self.register_run(queue, "busy-run")
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue.enqueue(cell, run="busy-run")
        observer = WorkQueue(str(tmp_path / "queue"))
        assert observer.live_run_ids(5.0) == ["busy-run"]
        time.sleep(0.15)
        assert observer.live_run_ids(5.0) == ["busy-run"]

    def test_worker_honors_stop_despite_a_crashed_coordinators_run(self, tmp_path):
        """End to end: one crashed coordinator's forever-active record used
        to disable STOP for the whole directory, pinning every worker to
        its full drain timeout."""
        queue = make_queue(tmp_path)
        self.register_run(queue, "crashed-run")  # never heartbeats again
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
    fully cached (or very short) writes STOP before the local workers it
    spawned are up. Such a worker used to take the marker for a previous
    sweep's leftover and poll until the coordinator's 30 s join timeout;
    a bare ``repro sweep-worker`` (test_executors.py,
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
            target=_local_worker_entry, args=(queue.queue_dir, 0.02, "run-r"),
            daemon=True,  # a regression must fail the test, not hang pytest
        )
        start = time.monotonic()
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), (
            "local worker treated its own coordinator's STOP as stale"
        )
        assert time.monotonic() - start < 2.0  # a few poll intervals

    def test_another_runs_leftover_marker_is_still_stale(self, tmp_path):
        """Only the spawning coordinator's marker is live at startup: with
        some other run's STOP on disk the worker waits for its own."""
        queue = self.finished_run(tmp_path, "earlier-run")
        worker = threading.Thread(
            target=_local_worker_entry, args=(queue.queue_dir, 0.02, "run-r"),
            daemon=True,
        )
        worker.start()
        worker.join(timeout=0.5)
        assert worker.is_alive()
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


class TestClearStopPruning:
    def test_clear_stop_prunes_retired_records_only(self, tmp_path):
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
        queue.clear_stop()
        assert queue.stop_marker_id() is None
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
    idle worker reads the STOP marker every base interval, so a drained
    sweep ends within one base interval of its last cell."""

    def test_backed_off_worker_sees_stop_within_one_base_interval(
        self, tmp_path, monkeypatch
    ):
        """Regression: a worker idling while a peer holds a lease used to
        sleep out the full 8x back-off (0.8 s here) before it looked at
        STOP, and the coordinator's join waited for it."""
        monkeypatch.setattr(worker_module, "_poll_jitter", lambda worker: 0.5)
        base_s = 0.1  # poll_interval_s * (0.5 + jitter)
        queue, claim = single_cell_claim(tmp_path)  # the peer's live lease
        queue.write_config(
            cache_dir=queue.default_results_dir(), max_attempts=3,
            lease_timeout_s=30.0, run_id="run-1",
        )
        summaries = []
        thread = threading.Thread(target=lambda: summaries.append(
            run_queue_worker(str(tmp_path / "queue"), poll_interval_s=0.1,
                             drain_timeout_s=30.0)))
        thread.start()
        time.sleep(0.3)  # the worker is now inside its 0.8 s back-off
        cache = ResultCache(queue.default_results_dir())
        queue.complete(claim, cache, claim.cell.execute(), 0.0, seq=1)
        queue.signal_stop("run-1")
        signalled = time.monotonic()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert time.monotonic() - signalled < 2.5 * base_s
        assert summaries[0].executed == 0

    @pytest.mark.parametrize("marker", ["startup-run", "seen-run"])
    def test_idle_wait_ignores_known_markers(self, tmp_path, marker):
        """The stale startup marker and a marker the exit test already
        weighed never cut the wait short -- else a worker that must keep
        serving a live run would rescan at full rate."""
        queue = make_queue(tmp_path)
        queue.signal_stop(marker)
        start = time.monotonic()
        assert _idle_wait(queue, 0.2, 0.05,
                          (None, "startup-run", "seen-run")) is None
        assert time.monotonic() - start >= 0.2

    def test_idle_wait_returns_on_a_new_marker(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.signal_stop("new-run")
        start = time.monotonic()
        assert _idle_wait(queue, 5.0, 0.05, (None,)) == "new-run"
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("delay_s", [0.05, 0.12, 0.3])
    def test_idle_wait_reads_the_marker_once_per_slice(
        self, tmp_path, monkeypatch, delay_s
    ):
        """No busy spin: at most ceil(delay / base) + 1 marker reads."""
        queue = make_queue(tmp_path)
        reads = []
        monkeypatch.setattr(queue, "stop_marker_id",
                            lambda: reads.append(1))
        slice_s = 0.05
        assert _idle_wait(queue, delay_s, slice_s, (None,)) is None
        assert 1 <= len(reads) <= math.ceil(delay_s / slice_s) + 1


class TestTaskNames:
    def test_service_format_roundtrip(self):
        name = _TaskName(key="ab" * 32, attempt=2, run="deadbeef", priority=5)
        assert name.stem() == "ab" * 32 + ".p00000005.rdeadbeef.a2"
        assert _TaskName.parse(name.stem() + ".task") == name

    def test_pre_service_format_does_not_parse(self):
        """The run-less PR 5 name is gone: one task-name generation."""
        assert _TaskName.parse("cd" * 32 + ".a3.task") is None

    @given(
        key=st.text("0123456789abcdef", min_size=1, max_size=64),
        run=st.text(string.ascii_letters + string.digits + "_-", min_size=1,
                    max_size=40),
        attempt=st.integers(1, 10**6),
        priority=st.integers(0, _TaskName.MAX_PRIORITY),
    )
    def test_every_valid_run_id_roundtrips(self, key, run, attempt, priority):
        name = _TaskName(key=key, attempt=attempt, run=run, priority=priority)
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
        assert queue.read_config() is None

    def test_priority_is_clamped(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = make_queue(tmp_path)
        assert queue.enqueue(cell, run="r", priority=10**12)
        (task,) = queue.pending_tasks()
        assert task.priority == _TaskName.MAX_PRIORITY


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

    def test_requeue_returns_an_unexecuted_tail(self, tmp_path):
        cells = tiny_spec().cells()
        queue = make_queue(tmp_path)
        for cell in cells:
            queue.enqueue(cell, run="r1")
        claims = queue.claim_batch(len(cells))
        queue.requeue(claims[-1])
        assert len(queue.pending_tasks()) == 1
        (claim,) = queue.claim_batch(10)
        assert claim.name.key == claims[-1].name.key
        assert claim.name.attempt == claims[-1].name.attempt  # no attempt spent

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


class TestPriorityScheduling:
    def test_explicit_priority_orders_claims(self, tmp_path):
        cells = tiny_spec().cells()
        queue = make_queue(tmp_path)
        queue.enqueue(cells[0], run="r", priority=5)
        queue.enqueue(cells[1], run="r", priority=9)
        claims = queue.claim_batch(2)
        assert [c.name.priority for c in claims] == [9, 5]

    def test_default_priority_is_estimated_cost_slowest_first(self, tmp_path):
        """Synchronous baselines (allreduce) cost more than gossip-family
        cells, so a mixed grid starts them first."""
        cells = tiny_spec().cells()  # adpsgd x2 seeds, allreduce x2 seeds
        queue = make_queue(tmp_path)
        for cell in cells:
            queue.enqueue(cell, run="r")
        claims = queue.claim_batch(len(cells))
        algorithms = [claim.cell.algorithm for claim in claims]
        assert algorithms == ["allreduce", "allreduce", "adpsgd", "adpsgd"]
        for claim in claims:
            assert claim.name.priority == claim.cell.estimated_cost()

    def test_estimate_cell_cost_ranking(self):
        kwargs = dict(num_workers=8, max_sim_time=100.0, num_samples=256)
        costs = {
            name: estimate_cell_cost(name, **kwargs)
            for name in ("netmax", "allreduce", "adpsgd")
        }
        assert costs["netmax"] > costs["allreduce"] > costs["adpsgd"] > 0
        assert estimate_cell_cost(
            "adpsgd", num_workers=16, max_sim_time=100.0
        ) == 2 * estimate_cell_cost("adpsgd", num_workers=8, max_sim_time=100.0)
        # Unregistered trainers schedule at gossip weight, not zero.
        assert estimate_cell_cost(
            "mystery", num_workers=8, max_sim_time=100.0
        ) == estimate_cell_cost("adpsgd", num_workers=8, max_sim_time=100.0)

    def test_cost_table_is_keyed_by_registry_names(self):
        """A weight under a name no trainer has is never looked up ("ps"
        used to leave ps-syn / ps-asyn at the default weight)."""
        assert set(_RELATIVE_ALGORITHM_COST) <= set(trainer_names())
        kwargs = dict(num_workers=8, max_sim_time=100.0)
        for name in ("ps-syn", "ps-asyn"):
            assert estimate_cell_cost(name, **kwargs) == estimate_cell_cost(
                "allreduce", **kwargs
            )


class TestFairShare:
    def test_single_worker_alternates_between_runs(self, tmp_path):
        """One worker draining two concurrent sweeps must interleave them
        (rotation cursor), not drain whichever run id sorts first."""
        cells = tiny_spec().cells()
        queue = make_queue(tmp_path)
        for cell in cells[:2]:
            queue.enqueue(cell, run="aaa", priority=1)
        for cell in cells[2:]:
            queue.enqueue(cell, run="bbb", priority=1)
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
            queue.enqueue(cell, run="aaa", priority=1)
        for cell in cells[2:]:
            queue.enqueue(cell, run="bbb", priority=1)
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
        queue.claim()
        snapshot = queue.status_snapshot()
        assert snapshot["pending"] == 2
        assert snapshot["leased"] == 1
        assert snapshot["completed"] == 0
        assert snapshot["failed"] == []
        assert snapshot["stop"] is None
        (run,) = snapshot["runs"]
        assert run["run_id"] == "run-1"
        assert run["active"] is True
        assert run["pending"] == 2 and run["leased"] == 1
        assert snapshot["workers"] == []
        json.dumps(snapshot)  # the CLI prints this verbatim

    def test_pre_service_tasks_appear_as_runless_group(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = make_queue(tmp_path)
        queue.enqueue(cell, run="t")  # a run nobody registered
        (run,) = queue.status_snapshot()["runs"]
        assert run == {"run_id": "t", "active": None, "coordinator": None,
                       "pending": 1, "leased": 0}

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
        assert queue.stop_marker_id() == "run-a"


class TestStreamingAggregation:
    def test_inline_stream_snapshots_match_batch_aggregation(self, tmp_path):
        spec = tiny_spec()
        snapshots: list[SweepProgress] = []
        result = run_sweep(
            spec, executor=InlineExecutor(),
            cache_dir=str(tmp_path / "cache"), stream=snapshots.append,
        )
        total = len(spec.cells())
        # One snapshot per finished cell plus the final done=True snapshot.
        assert [s.completed for s in snapshots] == list(range(1, total + 1)) + [total]
        assert [s.done for s in snapshots] == [False] * total + [True]
        for snapshot in snapshots:
            # A partial table equals the batch aggregation run on the same
            # subset of outcomes -- one code path, incremental or not.
            assert_rows_equal(
                metric_rows(snapshot.aggregate()),
                metric_rows(aggregate_outcomes(spec, snapshot.outcomes)),
            )
        # The final streamed table is the batch table, bit for bit.
        assert_rows_equal(
            metric_rows(snapshots[-1].aggregate()),
            metric_rows(aggregate_sweep(result)),
        )

    def test_queue_stream_partial_tables_over_half_drained_queue(self, tmp_path):
        spec = tiny_spec()
        snapshots: list[SweepProgress] = []
        result = run_sweep(
            spec,
            executor=QueueExecutor(str(tmp_path / "queue"), num_workers=1, **FAST),
            stream=snapshots.append,
        )
        assert snapshots and snapshots[-1].done
        partials = [s for s in snapshots if not s.done]
        assert partials, "queue backend streamed no mid-drain snapshots"
        for snapshot in partials:
            assert 0 < snapshot.completed <= len(spec.cells())
            assert_rows_equal(
                metric_rows(snapshot.aggregate()),
                metric_rows(aggregate_outcomes(spec, snapshot.outcomes)),
            )
        assert_rows_equal(
            metric_rows(snapshots[-1].aggregate()),
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
        snapshots: list[SweepProgress] = []
        run_sweep(
            spec, executor=InlineExecutor(), cache_dir=cache_dir,
            stream=snapshots.append,
        )
        (final,) = snapshots
        assert final.done and final.completed == final.total == 1


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
        """A worker seeing a STOP marker while another registered run is
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

"""Failure-path and equivalence tests for the pluggable sweep executors.

The file-queue broker's whole contract is exercised here: bit-identity with
the inline/process backends through the shared cache, resume-only-missing,
stale-lease reclaim (simulated *and* via a real SIGKILLed worker), retry
exhaustion surfacing a clear error, and corrupt-result quarantine.
"""

import hashlib
import json
import math
import multiprocessing
import os
import threading
import time
from collections import Counter

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.experiments.executors import (
    BatchedExecutor,
    InlineExecutor,
    ProcessExecutor,
    QueueExecutor,
    ResultCache,
    WorkQueue,
    make_executor,
    partition_batchable,
    run_queue_worker,
)
from repro.experiments.executors import QueueCellError
from repro.experiments.sweeps import (
    RunSpec,
    ScenarioSpec,
    SweepCell,
    WorkloadSpec,
    aggregate_sweep,
    run_sweep,
)
# Same-directory import (pytest prepend mode; the test tree is not a
# package): the sweep tests own the tiny-spec helpers.
from test_sweeps import (
    assert_results_identical,
    fail_cells_of,
    metric_rows,
    tiny_spec,
)

# Fast poll/reclaim settings so the failure paths run in test time.
FAST = dict(lease_timeout_s=5.0, poll_interval_s=0.02)


def queue_executor(tmp_path, **overrides) -> QueueExecutor:
    options = dict(FAST, num_workers=1)
    options.update(overrides)
    return QueueExecutor(str(tmp_path / "queue"), **options)


class TestMakeExecutor:
    def test_backend_names(self):
        assert make_executor("inline").name == "inline"
        assert make_executor("batched").name == "batched"
        assert make_executor("process", parallel=3).name == "process"
        queue = make_executor("queue", queue_dir="/tmp/q", num_queue_workers=2)
        assert queue.name == "queue"
        assert queue.num_workers == 2

    def test_queue_requires_directory(self):
        with pytest.raises(ValueError, match="queue directory"):
            make_executor("queue")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep backend"):
            make_executor("slurm")

    def test_explicit_parallel_one_is_honored(self):
        """--backend process --parallel 1 must not silently fan out to 2
        workers (memory-capped hosts rely on the exact count)."""
        assert make_executor("process", parallel=1).max_workers == 1
        assert make_executor("process", parallel=4).max_workers == 4
        assert make_executor("process").max_workers == 2  # unspecified

    def test_invalid_queue_settings_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            QueueExecutor("/tmp/q", num_workers=-1)
        with pytest.raises(ValueError, match="lease_timeout_s"):
            QueueExecutor("/tmp/q", lease_timeout_s=0.0)
        with pytest.raises(ValueError, match="max_attempts"):
            QueueExecutor("/tmp/q", max_attempts=0)

    @pytest.mark.parametrize("name", ["lease_timeout_s", "poll_interval_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_queue_timings_rejected(self, name, value):
        """Regression: NaN passed the lease-timeout floor test and made
        every live lease look stale; an infinite lease timeout or poll
        interval overflowed the first wait that used it."""
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            QueueExecutor("/tmp/q", **{name: value})

    @pytest.mark.parametrize("name", ["lease_timeout_s", "poll_interval_s"])
    def test_queue_timings_that_overflow_a_wait_rejected(self, name):
        """Regression: 1e300 is finite, so it passed, and then overflowed
        the first wait that used it (a lease heartbeat waits a third of the
        lease timeout; an idle worker up to 12x the poll interval). The
        constructor rejects it, before any process or thread starts."""
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"{name} must be finite and in"):
            QueueExecutor("/tmp/q", **{name: 1e300})
        assert threading.active_count() == threads

    def test_wait_ceilings_fit_the_longest_timeout(self):
        from repro.experiments.broker import (
            MAX_LEASE_TIMEOUT_S,
            MAX_POLL_INTERVAL_S,
            check_poll_interval,
        )

        assert MAX_LEASE_TIMEOUT_S / 3.0 <= threading.TIMEOUT_MAX
        assert MAX_POLL_INTERVAL_S * 8 * 1.5 <= threading.TIMEOUT_MAX
        check_poll_interval(MAX_POLL_INTERVAL_S)
        QueueExecutor("/tmp/q", lease_timeout_s=MAX_LEASE_TIMEOUT_S)
        with pytest.raises(ValueError, match="poll_interval_s"):
            check_poll_interval(math.nextafter(MAX_POLL_INTERVAL_S, math.inf))
        with pytest.raises(ValueError, match="lease_timeout_s"):
            QueueExecutor("/tmp/q", lease_timeout_s=math.nextafter(
                MAX_LEASE_TIMEOUT_S, math.inf))


class TestBackendEquivalence:
    """queue == process == inline, bit for bit (the tentpole criterion)."""

    def test_all_backends_bit_identical(self, tmp_path):
        spec = tiny_spec()
        inline = run_sweep(spec, executor=InlineExecutor())
        process = run_sweep(spec, executor=ProcessExecutor(2))
        queued = run_sweep(spec, executor=queue_executor(tmp_path, num_workers=2))
        assert inline.backend == "inline"
        assert process.backend == "process"
        assert queued.backend == "queue"
        assert queued.cells_executed == len(spec.cells())
        for a, b, c in zip(inline.outcomes, process.outcomes, queued.outcomes):
            assert a.cell == b.cell == c.cell
            assert_results_identical(a.result, b.result)
            assert_results_identical(a.result, c.result)
        assert (
            metric_rows(aggregate_sweep(inline))
            == metric_rows(aggregate_sweep(process))
            == metric_rows(aggregate_sweep(queued))
        )

    def test_queue_results_land_in_shared_cache(self, tmp_path):
        """An explicit --cache-dir is honored, so a later inline run over
        the same grid is served entirely from the queue run's results."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        cache_dir = str(tmp_path / "cache")
        queued = run_sweep(
            spec, cache_dir=cache_dir, executor=queue_executor(tmp_path)
        )
        followup = run_sweep(spec, cache_dir=cache_dir)
        assert followup.cells_from_cache == 1
        assert_results_identical(
            queued.outcomes[0].result, followup.outcomes[0].result
        )

    def test_queue_telemetry_recorded(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        queued = run_sweep(spec, executor=queue_executor(tmp_path))
        outcome = queued.outcomes[0]
        assert outcome.runtime_s > 0.0
        assert outcome.attempts == 1
        assert outcome.worker  # hostname-pid of whichever worker ran it
        meta = WorkQueue(str(tmp_path / "queue")).read_meta(
            outcome.cell.cache_key()
        )
        assert meta["label"] == outcome.cell.label()
        assert meta["runtime_s"] == outcome.runtime_s


class TestBatchedBackend:
    """The lockstep SoA backend: bit-identical, cache-compatible, and its
    partitioner never co-schedules incompatible cells."""

    def test_batched_bit_identical_to_inline(self):
        """tiny_spec mixes a batchable algorithm (adpsgd) with a
        non-batchable one (allreduce), so this exercises both the lockstep
        engine and the per-cell fall-through in one sweep."""
        spec = tiny_spec()
        batches, singles = partition_batchable(spec.cells())
        assert batches and singles  # both paths genuinely exercised
        inline = run_sweep(spec, executor=InlineExecutor())
        batched = run_sweep(spec, executor=BatchedExecutor())
        assert batched.backend == "batched"
        for a, b in zip(inline.outcomes, batched.outcomes):
            assert a.cell == b.cell
            assert_results_identical(a.result, b.result)
        assert metric_rows(aggregate_sweep(inline)) == metric_rows(
            aggregate_sweep(batched)
        )

    def test_batched_results_cache_and_rerun_identical(self, tmp_path):
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        fresh = run_sweep(spec, cache_dir=cache_dir, executor=BatchedExecutor())
        assert fresh.cells_executed == len(spec.cells())
        rerun = run_sweep(spec, cache_dir=cache_dir, executor=BatchedExecutor())
        assert rerun.cells_from_cache == len(spec.cells())
        for a, b in zip(fresh.outcomes, rerun.outcomes):
            assert_results_identical(a.result, b.result)

    def test_runtime_telemetry_is_additive(self):
        outcome_runtimes = [
            outcome.runtime_s
            for outcome in run_sweep(
                tiny_spec(), executor=BatchedExecutor()
            ).outcomes
        ]
        assert all(runtime > 0.0 for runtime in outcome_runtimes)


# Cell-spec axes for the partitioning property: batchable and non-batchable
# algorithms, two worker counts, and the three compatibility hazards the
# partitioner must keep out of batches (nothing / time-varying edges /
# churn). ScenarioSpec construction validates params, so draws build real
# specs, never toy stand-ins.
_ALGORITHMS = ("adpsgd", "saps", "allreduce", "netmax")
_HAZARDS = ("plain", "dynamic-edges", "churn")


def _property_cell(algorithm: str, workers: int, hazard: str) -> SweepCell:
    if hazard == "churn":
        scenario = ScenarioSpec("churn", workers)
    elif hazard == "dynamic-edges":
        scenario = ScenarioSpec(
            "heterogeneous", workers, params=(("edge_failures", 2),)
        )
    else:
        scenario = ScenarioSpec("heterogeneous", workers)
    return SweepCell(
        algorithm=algorithm,
        seed=0,
        scenario=scenario,
        workload=WorkloadSpec(),
        run=RunSpec(),
    )


class TestBatchedPartitioning:
    @given(
        draws=st.lists(
            st.tuples(
                st.sampled_from(_ALGORITHMS),
                st.sampled_from((4, 8)),
                st.sampled_from(_HAZARDS),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_partition_is_a_disjoint_cover_of_compatible_cells(self, draws):
        from repro.algorithms.registry import TRAINER_REGISTRY

        cells = [_property_cell(*draw) for draw in draws]
        batches, singles = partition_batchable(cells)
        # Exactly one home per cell: the executor fills its output slots
        # from this partition, so overlap or omission would corrupt results.
        covered = sorted(index for batch in batches for index in batch)
        assert sorted(covered + singles) == list(range(len(cells)))
        assert len(set(covered) | set(singles)) == len(cells)
        for batch in batches:
            assert len(batch) >= 2  # singleton batches fall through
            members = [cells[index] for index in batch]
            # Never co-scheduled: a batch is uniform in worker count and
            # contains only batchable cells (opted-in trainer, no churn
            # family, no time-varying topology).
            assert len({cell.scenario.num_workers for cell in members}) == 1
            for cell in members:
                assert TRAINER_REGISTRY[cell.algorithm].supports_batched
                assert cell.scenario.kind != "churn"
                assert not cell.scenario.has_dynamic_edges()

    def test_incompatible_cells_fall_through(self):
        cells = [
            _property_cell("adpsgd", 4, "plain"),
            _property_cell("adpsgd", 4, "churn"),
            _property_cell("adpsgd", 4, "dynamic-edges"),
            _property_cell("allreduce", 4, "plain"),
            _property_cell("adpsgd", 8, "plain"),  # lone worker count
            _property_cell("saps", 4, "plain"),
        ]
        batches, singles = partition_batchable(cells)
        # adpsgd and saps share the 4-worker batch; everything else is
        # hazardous, opted out, or a singleton compatibility class.
        assert batches == [[0, 5]]
        assert singles == [1, 2, 3, 4]


class TestForce:
    def test_force_reexecutes_through_queue_backend(self, tmp_path):
        """force=True must re-execute through *every* backend: the queue
        broker treats an existing result file as "done", so the stale entry
        is evicted up front (regression: force used to be a silent no-op
        here, serving old results labeled as freshly executed)."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        first = run_sweep(spec, executor=queue_executor(tmp_path))
        results_dir = str(tmp_path / "queue" / "results")
        result_path = ResultCache(results_dir).path(cell.cache_key())
        stamp_before = os.stat(result_path).st_mtime_ns

        forced = run_sweep(
            spec, executor=queue_executor(tmp_path), force=True
        )
        assert forced.cells_executed == 1
        assert forced.cells_from_cache == 0
        assert os.stat(result_path).st_mtime_ns > stamp_before
        assert_results_identical(first.outcomes[0].result,
                                 forced.outcomes[0].result)


class TestQueueResume:
    def test_restarted_sweep_executes_only_missing_cells(self, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, executor=queue_executor(tmp_path, num_workers=2))
        assert first.cells_executed == 4

        results_dir = str(tmp_path / "queue" / "results")
        victim = first.outcomes[2].cell.cache_key()
        os.unlink(ResultCache(results_dir).path(victim))

        resumed = run_sweep(spec, executor=queue_executor(tmp_path))
        assert resumed.cells_executed == 1
        assert resumed.cells_from_cache == 3
        for a, b in zip(first.outcomes, resumed.outcomes):
            assert_results_identical(a.result, b.result)


class TestStaleLeaseReclaim:
    def test_reclaim_simulated_dead_worker(self, tmp_path):
        """A lease whose heartbeat went stale returns to the task pool with
        the attempt counter bumped, and the cell still executes."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = WorkQueue(str(tmp_path / "queue"))
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3,
            lease_timeout_s=0.2,
            run_id="test-run",
        )
        assert queue.enqueue(cell, run="test-run")
        (claim,) = queue.claim_batch(1)  # "worker" claims, then dies: no heartbeat
        assert queue.pending_tasks() == []

        # Staleness needs an observation window: the first call records the
        # heartbeat counter, and only a counter unchanged across a full
        # lease timeout is stale (never a wall-clock/mtime comparison).
        assert queue.reclaim_stale(lease_timeout_s=0.2, max_attempts=3) == 0
        time.sleep(0.3)
        assert queue.reclaim_stale(lease_timeout_s=0.2, max_attempts=3) == 1
        (task,) = queue.pending_tasks()
        assert task.key == cell.cache_key()
        assert task.attempt == 2  # the dead worker spent one attempt
        assert queue.active_leases() == []

        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.2
        )
        assert summary.executed == 1
        result = ResultCache(queue.default_results_dir()).load(cell.cache_key())
        assert_results_identical(result, cell.execute())

    def test_reclaim_on_final_attempt_fails_terminally(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = WorkQueue(str(tmp_path / "queue"))
        assert queue.enqueue(cell, run="t", attempt=3)
        assert len(queue.claim_batch(1)) == 1
        assert queue.reclaim_stale(lease_timeout_s=0.2, max_attempts=3) == 0
        time.sleep(0.3)
        assert queue.reclaim_stale(lease_timeout_s=0.2, max_attempts=3) == 1
        assert queue.pending_tasks() == []
        failure = queue.read_failure(cell.cache_key())
        assert "presumed dead" in failure["error"]
        assert failure["attempts"] == 3

    def test_sigkilled_worker_is_reclaimed_end_to_end(self, tmp_path):
        """The real thing: a worker process is SIGKILLed mid-cell; the
        coordinator-side reclaim makes the cell claimable again and a second
        worker finishes it, bit-identically to a fresh execution."""
        spec = tiny_spec(
            algorithms=("adpsgd",),
            seeds=(0,),
            run=RunSpec(max_sim_time=600.0, eval_interval_s=60.0),
        )
        (cell,) = spec.cells()
        queue_dir = str(tmp_path / "queue")
        queue = WorkQueue(queue_dir)
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3,
            lease_timeout_s=0.5,
            run_id="test-run",
        )
        assert queue.enqueue(cell, run="test-run")

        worker = multiprocessing.Process(
            target=run_queue_worker, args=(queue_dir,), daemon=True
        )
        worker.start()
        deadline = time.monotonic() + 60.0
        while not queue.active_leases() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert queue.active_leases(), "worker never claimed the cell"
        worker.kill()  # SIGKILL: no cleanup, the lease heartbeat just stops
        worker.join(timeout=30.0)
        cache = ResultCache(queue.default_results_dir())
        assert cache.load(cell.cache_key()) is None, (
            "cell finished before the kill; make the cell slower"
        )

        # First call records the frozen heartbeat counter; the second, after
        # a full lease window with no beats, declares the worker dead.
        assert queue.reclaim_stale(lease_timeout_s=0.5, max_attempts=3) == 0
        time.sleep(0.7)
        assert queue.reclaim_stale(lease_timeout_s=0.5, max_attempts=3) == 1
        summary = run_queue_worker(
            queue_dir, poll_interval_s=0.02, drain_timeout_s=0.2
        )
        assert summary.executed == 1
        assert_results_identical(cache.load(cell.cache_key()), cell.execute())

    def test_reclaim_resets_the_drain_timer(self, tmp_path):
        """A worker that reclaims a dead peer's lease must stay to execute
        it rather than draining out on an already-expired idle timer
        (regression: reclaim-then-exit used to strand the requeued task).

        The worker spends most of its drain window idle-watching the dead
        lease (staleness requires a counter frozen across a full lease
        timeout), so by the time the reclaim fires the idle timer is nearly
        spent -- only the reset lets it claim and execute the requeued cell.
        """
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = WorkQueue(str(tmp_path / "queue"))
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3,
            lease_timeout_s=0.2,
            run_id="test-run",
        )
        queue.enqueue(cell, run="test-run")
        (claim,) = queue.claim_batch(1)  # dead peer: claims, then never heartbeats

        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.5
        )
        assert summary.reclaimed == 1
        assert summary.executed == 1
        result = ResultCache(queue.default_results_dir()).load(cell.cache_key())
        assert result is not None

    def test_heartbeat_keeps_slow_cells_alive(self, tmp_path):
        """A lease timeout shorter than the cell runtime must NOT cause
        spurious retries: the executing worker's heartbeat keeps renewing
        the lease, so the cell completes on attempt 1."""
        spec = tiny_spec(
            algorithms=("adpsgd",),
            seeds=(0,),
            run=RunSpec(max_sim_time=300.0, eval_interval_s=60.0),
        )
        queued = run_sweep(
            spec,
            executor=queue_executor(tmp_path, lease_timeout_s=1.0),
        )
        assert queued.outcomes[0].attempts == 1


class TestRetryExhaustion:
    def test_exhausted_budget_surfaces_clear_error(self, tmp_path, monkeypatch):
        """A cell that fails every attempt fails the sweep with the cell
        label, the attempt count, and the underlying error text."""
        spec = tiny_spec(algorithms=("allreduce",), seeds=(0,))
        fail_cells_of(monkeypatch, "allreduce")
        with pytest.raises(QueueCellError) as error:
            run_sweep(
                spec, executor=queue_executor(tmp_path, max_attempts=2)
            )
        message = str(error.value)
        assert "allreduce/s0" in message
        assert "injected cell failure" in message
        assert "2 attempt(s)" in message
        failure = WorkQueue(str(tmp_path / "queue")).read_failure(
            spec.cells()[0].cache_key()
        )
        assert failure["attempts"] == 2

    def test_rerun_after_failure_retries_the_cell(self, tmp_path, monkeypatch):
        """A restarted sweep clears its cells' terminal-failure records, so
        a fixed environment can finish a previously failing grid."""
        bad = tiny_spec(algorithms=("allreduce",), seeds=(0,))
        fail_cells_of(monkeypatch, "allreduce")
        executor = queue_executor(tmp_path, max_attempts=1)
        with pytest.raises(QueueCellError):
            run_sweep(bad, executor=executor)
        # The retry of the same grid fails again (the cell still fails) --
        # but it *re-attempts* rather than replaying the stale failure
        # record instantly.
        with pytest.raises(QueueCellError, match="injected cell failure"):
            run_sweep(bad, executor=queue_executor(tmp_path, max_attempts=1))

    def test_good_cells_complete_despite_failing_sibling(
        self, tmp_path, monkeypatch
    ):
        """The failure is per-cell: completed siblings stay in the cache, so
        only the bad cell is missing afterwards."""
        spec = tiny_spec(algorithms=("adpsgd", "allreduce"), seeds=(0,))
        fail_cells_of(monkeypatch, "allreduce")
        cells = spec.cells()
        with pytest.raises(QueueCellError):
            run_sweep(spec, executor=queue_executor(tmp_path, max_attempts=1))
        cache = ResultCache(str(tmp_path / "queue" / "results"))
        good = [c for c in cells if c.algorithm == "adpsgd"]
        assert all(cache.load(c.cache_key()) is not None for c in good)


class TestQuarantine:
    def corrupt(self, cache: ResultCache, key: str) -> None:
        with open(cache.path(key), "wb") as handle:
            handle.write(b"\x80\x04 definitely not a result pickle")

    def test_corrupt_entry_quarantined_and_reexecuted(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        cache_dir = str(tmp_path / "cache")
        first = run_sweep(spec, cache_dir=cache_dir)
        key = spec.cells()[0].cache_key()
        cache = ResultCache(cache_dir)
        self.corrupt(cache, key)

        again = run_sweep(spec, cache_dir=cache_dir)
        assert again.cells_executed == 1 and again.cells_from_cache == 0
        assert_results_identical(first.outcomes[0].result,
                                 again.outcomes[0].result)
        quarantined = [entry for entry in os.listdir(cache.quarantine_dir())
                       if entry.endswith(".pkl")]
        assert len(quarantined) == 1 and quarantined[0].startswith(key)
        # The "why" lands next to the quarantined bytes for forensics.
        with open(os.path.join(cache.quarantine_dir(),
                               f"{quarantined[0]}.reason.txt")) as handle:
            assert handle.read().strip()
        # The re-executed (clean) entry serves the next run from cache.
        assert run_sweep(spec, cache_dir=cache_dir).cells_from_cache == 1

    def test_truncated_entry_quarantined(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        cache_dir = str(tmp_path / "cache")
        run_sweep(spec, cache_dir=cache_dir)
        key = spec.cells()[0].cache_key()
        cache = ResultCache(cache_dir)
        with open(cache.path(key), "r+b") as handle:  # truncate mid-pickle
            handle.truncate(64)
        assert cache.load(key) is None
        assert os.listdir(cache.quarantine_dir())
        assert not os.path.exists(cache.path(key))

    def test_quarantine_through_the_queue_backend(self, tmp_path):
        """A corrupt result in the queue's results store is quarantined by
        the restarted coordinator and the cell re-executes."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0, 1))
        first = run_sweep(spec, executor=queue_executor(tmp_path))
        results_dir = str(tmp_path / "queue" / "results")
        cache = ResultCache(results_dir)
        key = spec.cells()[1].cache_key()
        self.corrupt(cache, key)

        resumed = run_sweep(spec, executor=queue_executor(tmp_path))
        assert resumed.cells_executed == 1
        assert resumed.cells_from_cache == 1
        for a, b in zip(first.outcomes, resumed.outcomes):
            assert_results_identical(a.result, b.result)
        assert os.listdir(cache.quarantine_dir())


class TestWorkQueuePrimitives:
    def test_claim_is_exclusive(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = WorkQueue(str(tmp_path / "queue"))
        assert queue.enqueue(cell, run="t")
        assert not queue.enqueue(cell, run="t")  # already queued: dedup
        assert len(queue.claim_batch(1)) == 1
        assert queue.claim_batch(1) == []  # second claimant loses
        assert not queue.enqueue(cell, run="t")  # leased: still dedup

    @pytest.mark.parametrize("lease_batch", [1, 16])
    def test_a_batch_claim_lists_tasks_once(self, tmp_path, monkeypatch,
                                            lease_batch):
        """Batch leases amortize the ``tasks/`` scan: a drain of N cells
        lists the directory once per ``claim_batch`` call (ceil(N/k) calls
        that claim, one that finds it empty), never once per claim."""
        cells = tiny_spec(algorithms=("adpsgd",), seeds=tuple(range(40))).cells()
        queue = WorkQueue(str(tmp_path / "queue"))
        present = queue.present_keys("t")
        for cell in cells:
            assert queue.enqueue(cell, present=present, run="t")
        listings = Counter()
        listdir = os.listdir

        def counting_listdir(path):
            listings[path] += 1
            return listdir(path)

        monkeypatch.setattr(os, "listdir", counting_listdir)
        claimed = []
        while claims := queue.claim_batch(lease_batch):
            claimed += [claim.name.key for claim in claims]
        assert sorted(claimed) == sorted(cell.cache_key() for cell in cells)
        assert listings[queue.tasks_dir] == math.ceil(len(cells) / lease_batch) + 1

    def test_unreadable_task_spec_fails_terminally_not_the_worker(self, tmp_path):
        """Garbage bytes in tasks/ must become a failed/ record -- never an
        uncaught exception that serially crashes the worker fleet."""
        queue = WorkQueue(str(tmp_path / "queue"))
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3, lease_timeout_s=30.0, run_id="test-run",
        )
        bad = os.path.join(queue.tasks_dir, "deadbeef" * 8 + ".rtest-run.a1.task")
        with open(bad, "wb") as handle:
            handle.write(b"\x80\x04 not a sweep cell")
        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.2
        )
        assert summary.executed == 0
        failure = queue.read_failure("deadbeef" * 8)
        assert "unreadable task spec" in failure["error"]
        assert queue.pending_tasks() == [] and queue.active_leases() == []

    @pytest.mark.parametrize("forgery", [
        "another-cells-key", "cache-version-5", "cache-version-5-current-key",
    ])
    def test_a_task_that_is_not_its_key_fails_terminally(self, tmp_path, forgery):
        """A task runs only as the cell its filename names. Cell A's task
        renamed to cell B's key (what a host running other code writes), or
        a cell written under another CACHE_VERSION, fails terminally naming
        the mismatch: nothing executes, no result is stored under any key."""
        cell_a, cell_b = tiny_spec(algorithms=("adpsgd",), seeds=(0, 1)).cells()
        queue = WorkQueue(str(tmp_path / "queue"))
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3, lease_timeout_s=30.0, run_id="test-run",
        )
        key_a = cell_a.cache_key()
        if forgery == "another-cells-key":
            assert queue.enqueue(cell_a, run="test-run")
            key, mismatch = cell_b.cache_key(), key_a
            (entry,) = os.listdir(queue.tasks_dir)
            os.rename(os.path.join(queue.tasks_dir, entry),
                      os.path.join(queue.tasks_dir, entry.replace(key_a, key)))
        else:
            line = json.dumps(dict(cell_a.describe(), cache_version=5),
                              sort_keys=True)
            key = (hashlib.sha256(line.encode()).hexdigest()
                   if forgery == "cache-version-5" else key_a)
            mismatch = "cache_version 5"
            path = os.path.join(queue.tasks_dir, f"{key}.rtest-run.a1.task")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(line + "\n")
        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.2
        )
        assert summary.executed == 0
        failure = queue.read_failure(key)
        assert "unreadable task spec" in failure["error"]
        assert mismatch in failure["error"]
        assert len(ResultCache(queue.default_results_dir())) == 0
        assert queue.pending_tasks() == [] and queue.active_leases() == []

    def test_worker_skips_already_completed_cells(self, tmp_path):
        """A cell whose result landed between enqueue and claim is released
        without re-execution (the kill-resume fast path)."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = WorkQueue(str(tmp_path / "queue"))
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3,
            lease_timeout_s=30.0,
            run_id="test-run",
        )
        ResultCache(queue.default_results_dir()).store(
            cell.cache_key(), cell.execute()
        )
        queue.enqueue(cell, run="test-run")
        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.2
        )
        assert summary.executed == 0
        assert summary.skipped == 1

    def test_worker_without_a_run_drains_out(self, tmp_path):
        summary = run_queue_worker(
            str(tmp_path / "queue"), poll_interval_s=0.02, drain_timeout_s=0.1
        )
        assert summary.executed == 0

    def test_ended_run_stops_a_backed_off_worker_within_one_base_poll(
        self, tmp_path, monkeypatch
    ):
        """A run that *ends during the worker's lifetime* (its record turns
        ``active: false``) ends it within a base poll interval, however far
        the worker has backed off (the local-worker shutdown path)."""
        import threading

        from repro.experiments import worker as worker_module

        # base interval 0.1 s; by 1.7 s the back-off is at its 0.8 s cap
        monkeypatch.setattr(worker_module, "_poll_jitter", lambda worker: 0.5)
        queue = WorkQueue(str(tmp_path / "queue"))
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3, lease_timeout_s=30.0, run_id="test-run",
        )
        signalled = []

        def stop():
            queue.signal_stop("test-run")
            signalled.append(time.monotonic())

        timer = threading.Timer(1.7, stop)
        timer.start()
        try:
            summary = run_queue_worker(
                str(tmp_path / "queue"), poll_interval_s=0.1,
                drain_timeout_s=30.0,
            )
        finally:
            timer.cancel()
        assert summary.executed == 0
        assert time.monotonic() - signalled[0] < 0.4

    def test_stale_stop_marker_from_previous_sweep_is_ignored(self, tmp_path):
        """A reused queue directory keeps the previous sweep's retired run
        record; a worker joining ahead of the *next* sweep generation must
        wait for it and work through its queue rather than exiting on the
        stale record (regression: workers that raced ahead of the
        coordinator used to quit instantly)."""
        import threading

        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        (cell,) = spec.cells()
        queue = WorkQueue(str(tmp_path / "queue"))
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3, lease_timeout_s=30.0, run_id="previous-run",
        )
        queue.signal_stop("previous-run")  # leftover from an earlier sweep
        summaries = []
        worker = threading.Thread(target=lambda: summaries.append(
            run_queue_worker(str(tmp_path / "queue"), poll_interval_s=0.02,
                             drain_timeout_s=30.0)))
        worker.start()
        worker.join(timeout=0.3)
        assert worker.is_alive(), "worker quit on the previous sweep's run"
        queue.write_config(
            cache_dir=queue.default_results_dir(),
            max_attempts=3, lease_timeout_s=30.0, run_id="next-run",
        )
        queue.enqueue(cell, run="next-run")
        cache = ResultCache(queue.default_results_dir())
        deadline = time.monotonic() + 30.0
        while cache.peek(cell.cache_key()) is None:
            assert time.monotonic() < deadline, "the cell never ran"
            time.sleep(0.02)
        queue.signal_stop("next-run")
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert summaries[0].executed == 1

    def test_coordinator_restart_clears_previous_stop(self, tmp_path):
        """End to end on a reused queue dir: the second sweep (new run_id)
        completes with local workers despite the first sweep's retired run,
        which it prunes; no other record of either sweep exists."""
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        first = run_sweep(spec, executor=queue_executor(tmp_path))
        queue = WorkQueue(str(tmp_path / "queue"))
        (first_run,) = queue.list_runs()
        assert first_run["active"] is False
        more = tiny_spec(algorithms=("adpsgd",), seeds=(1,))
        second = run_sweep(more, executor=queue_executor(tmp_path))
        assert second.cells_executed == 1
        assert_results_identical(
            second.outcomes[0].result, more.cells()[0].execute()
        )
        assert first.outcomes[0].cell != second.outcomes[0].cell
        (second_run,) = queue.list_runs()
        assert second_run["run_id"] != first_run["run_id"]
        assert second_run["active"] is False
        assert not {"queue.json", "STOP"} & set(os.listdir(queue.queue_dir))


def _serving_worker(tmp_path) -> threading.Thread:
    """A ``sweep-worker`` on a thread of this process (so a patched
    ``ResultCache`` reaches it), serving ``tmp_path / "queue"``."""
    worker = threading.Thread(
        target=run_queue_worker, args=(str(tmp_path / "queue"),),
        kwargs=dict(poll_interval_s=0.02, drain_timeout_s=30.0), daemon=True,
    )
    worker.start()
    return worker


class TestLanding:
    """A queue cell lands once its result is on disk and its run holds no
    task or lease for it; its result is loaded exactly once, then."""

    def test_the_last_cell_lands_with_its_telemetry(self, tmp_path, monkeypatch):
        """Regression: the coordinator read meta/ as soon as the last result
        file existed, before ``complete`` had written the telemetry, and
        reported ``runtime_s = nan`` and ``worker = None``."""
        store = ResultCache.store

        def slow_store(self, key, result):
            store(self, key, result)
            time.sleep(0.5)

        monkeypatch.setattr(ResultCache, "store", slow_store)
        worker = _serving_worker(tmp_path)
        sweep = run_sweep(tiny_spec(algorithms=("adpsgd",), seeds=(0, 1)),
                          executor=queue_executor(tmp_path, num_workers=0))
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        for outcome in sweep.outcomes:
            assert math.isfinite(outcome.runtime_s), outcome.cell.label()
            assert outcome.worker is not None, outcome.cell.label()

    def test_a_result_quarantined_on_landing_is_reexecuted(
        self, tmp_path, monkeypatch
    ):
        """Torn bytes under a result's name are quarantined by the load of
        its landing, and the cell goes back onto the queue while the
        workers are up; the sweep still ends bit-identical to inline."""
        store = ResultCache.store
        torn: list[str] = []

        def store_torn_once(self, key, result):
            if torn:
                return store(self, key, result)
            torn.append(key)
            with open(self.path(key), "wb") as handle:
                handle.write(b"\x80\x04 torn result bytes")

        monkeypatch.setattr(ResultCache, "store", store_torn_once)
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0, 1))
        worker = _serving_worker(tmp_path)
        queued = run_sweep(spec, executor=queue_executor(tmp_path, num_workers=0))
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        inline = run_sweep(spec)
        for a, b in zip(queued.outcomes, inline.outcomes):
            assert_results_identical(a.result, b.result)
        quarantine = ResultCache(str(tmp_path / "queue" / "results")).quarantine_dir()
        (moved,) = [entry for entry in os.listdir(quarantine)
                    if entry.endswith(".pkl")]
        assert moved.startswith(torn[0])

    def test_a_result_unreadable_max_attempts_times_fails_the_sweep(
        self, tmp_path, monkeypatch
    ):
        """A cell whose every result lands torn fails the sweep once it has
        been loaded unreadable ``max_attempts`` times."""

        def store_torn(self, key, result):
            with open(self.path(key), "wb") as handle:
                handle.write(b"\x80\x04 torn result bytes")

        monkeypatch.setattr(ResultCache, "store", store_torn)
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        worker = _serving_worker(tmp_path)
        with pytest.raises(QueueCellError, match=(
                r"1 result\(s\) stayed unreadable after 2 collection "
                r"round\(s\): adpsgd/s0")):
            run_sweep(spec, executor=queue_executor(
                tmp_path, num_workers=0, max_attempts=2))
        worker.join(timeout=30.0)
        assert not worker.is_alive()


class TestWakeEvents:
    """A coordinator and the workers it spawns wake each other; anyone
    else polls through ``time.sleep``."""

    def test_local_sweep_returns_inside_one_poll_interval(
        self, tmp_path, monkeypatch
    ):
        """The coordinator's wait ends on a local worker going idle, and the
        workers' idle wait on the coordinator's stop, so with a 5 s poll
        interval a 4-cell sweep returns well before any one wait runs
        out (it used to sleep one full interval at least). The ring is
        cleared before each scan: the coordinator scans once up front and
        once per worker going idle, never in a spin."""
        scans = []
        reclaim = WorkQueue.reclaim_stale

        def counting(queue, *args):
            scans.append(os.getpid())
            return reclaim(queue, *args)

        monkeypatch.setattr(WorkQueue, "reclaim_stale", counting)
        spec = tiny_spec()
        assert len(spec.cells()) == 4
        start = time.monotonic()
        queued = run_sweep(spec, executor=queue_executor(
            tmp_path, num_workers=2, poll_interval_s=5.0))
        assert time.monotonic() - start < 5.0
        assert queued.cells_executed == 4
        # Every scan but the last ends in a reclaim pass; the workers'
        # passes happen in their own processes and do not show here.
        assert 1 <= len(scans) <= 3, scans
        inline = run_sweep(spec)
        for a, b in zip(queued.outcomes, inline.outcomes):
            assert_results_identical(a.result, b.result)

    def test_without_local_workers_both_sides_sleep(self, tmp_path, monkeypatch):
        """A coordinator with ``num_workers=0`` and a worker started through
        ``run_queue_worker`` itself wait in ``time.sleep`` -- where the
        ledger's traced pass times waiting apart from work."""
        sleeps = Counter()
        sleep = time.sleep

        def counting(seconds):
            sleeps[threading.current_thread().name] += 1
            sleep(seconds)

        monkeypatch.setattr(time, "sleep", counting)
        me = threading.current_thread().name
        # Alone on an empty queue, a worker waits until its drain timeout.
        summary = run_queue_worker(str(tmp_path / "empty"),
                                   poll_interval_s=0.02, drain_timeout_s=0.1)
        assert summary.executed == 0
        assert sleeps[me] >= 1
        # The coordinator waits between scans (its first scan comes right
        # after the enqueue, long before the cell can have run).
        sleeps.clear()
        worker = _serving_worker(tmp_path)
        run_sweep(tiny_spec(algorithms=("adpsgd",), seeds=(0,)),
                  executor=queue_executor(tmp_path, num_workers=0))
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert sleeps[me] >= 1


_BACKENDS = {
    "inline": lambda directory: InlineExecutor(),
    "process": lambda directory: ProcessExecutor(2),
    "batched": lambda directory: BatchedExecutor(),
    "queue": lambda directory: QueueExecutor(str(directory), num_workers=1,
                                             **FAST),
}


@pytest.mark.parametrize("backend", sorted(_BACKENDS))
def test_each_cell_takes_one_path_out_of_its_executor(
    backend, tmp_path, monkeypatch
):
    """``landed`` fires once per cell; the stream's ``done`` snapshot is the
    SweepResult; a streamed queue sweep unpickles each result once, by
    ``load``, and never ``peek``s (it used to do both, per cell)."""
    spec = tiny_spec()
    cells = spec.cells()
    landings = []
    _BACKENDS[backend](tmp_path / "direct").run(
        cells, None, lambda index, outcome: landings.append(index))
    assert sorted(landings) == list(range(len(cells)))

    reads = []
    for method in ("load", "peek"):
        def spy(self, key, _read=getattr(ResultCache, method), _method=method):
            result = _read(self, key)
            reads.append((_method, key, result is not None))
            return result

        monkeypatch.setattr(ResultCache, method, spy)
    snapshots = []
    sweep = run_sweep(spec, executor=_BACKENDS[backend](tmp_path / "streamed"),
                      stream=snapshots.append)
    assert [snapshot.done for snapshot in snapshots] == [False] * len(cells) + [True]
    final = snapshots[-1]
    assert len(final) == final.total == len(sweep.outcomes)
    assert all(a is b for a, b in zip(final.outcomes, sweep.outcomes, strict=True))
    if backend == "queue":
        assert [read for read in reads if read[0] == "peek"] == []
        loaded = Counter(key for method, key, hit in reads
                         if method == "load" and hit)
        assert loaded == Counter(cell.cache_key() for cell in cells)


class TestProgressWiring:
    def test_queue_progress_messages(self, tmp_path):
        messages = []
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        executor = queue_executor(tmp_path, progress=messages.append)
        run_sweep(spec, executor=executor)
        assert any("enqueued" in message for message in messages)


def test_cell_time_columns_share_the_nan_renderer():
    """A NaN telemetry column renders '-' like every other NaN metric."""
    sweep = run_sweep(tiny_spec(algorithms=("adpsgd",), seeds=(0,)))
    output = aggregate_sweep(sweep)
    rendered = output.render()
    assert "cell_time_mean" in rendered
    assert np.isfinite(output.rows[0][9])

"""A crash-point matrix over the cell lifecycle (fault injection, part one).

For every broker transition and every filesystem call it makes
(``os.rename`` / ``os.replace`` / ``os.unlink`` inside
``repro.experiments.broker`` and ``repro.experiments.cache``), the process
"dies" at that call: a wrapper around the two modules' ``os`` raises before
the call executes. The directory is then handed to survivors -- a fresh
:class:`WorkQueue` observer playing janitor and a fresh
:func:`run_queue_worker` -- which must drain it: every cell of a 4-cell
grid ends with a result bit-identical to inline execution or a terminal
``failed/`` record that names it, no lease or task file is left behind, and
the crash cost at most one attempt.

The matrix discovers the call count of each transition by itself (it moves
the crash point forward until the transition completes without reaching
it), so a filesystem step added to a transition is covered without editing
this file.

Part two crashes the coordinator the same way: ``QueueExecutor.run`` dies
at each filesystem call of ``write_config``, the enqueue loop and
``signal_stop`` while a worker is already serving the directory. That
worker must leave once the dead run ages out of ``live_run_ids`` (there is
no other "sweep over" signal left to wait for), and a fresh ``run_sweep``
plus a fresh worker must finish the grid bit-identically to inline.
"""

import ast
import inspect
import os
import threading
import time

import pytest

from repro.experiments import broker, cache, executors, worker
from repro.experiments.executors import ResultCache, WorkQueue, run_queue_worker
from repro.experiments.sweeps import run_sweep
# Same-directory import (pytest prepend mode; the test tree is not a
# package): the sweep tests own the tiny-spec helpers.
from test_sweeps import assert_results_identical, tiny_spec

RUN = "crash"
LEASE_TIMEOUT_S = 0.1
MAX_ATTEMPTS = 3


class _Died(BaseException):
    """The process died here (a BaseException: no ``except Exception`` arm
    may mistake it for an error the code handles)."""


class _DyingOs:
    """Stands in for ``os`` inside the broker and the cache: counts the
    mutating filesystem calls and raises :class:`_Died` *instead of* making
    call number ``crash_at`` (once; the dead process makes no later call
    that matters, but exception clean-up code may still run)."""

    COUNTED = ("rename", "replace", "unlink")

    def __init__(self, crash_at, scope=None):
        self.crash_at = crash_at
        self.calls = 0
        self.died = False
        # With a scope, only calls made while the calling thread has
        # ``scope.armed`` set count (other threads share the patched module).
        self.scope = scope

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.COUNTED:
            return real

        def counted(*args, **kwargs):
            if self.scope is not None and not getattr(self.scope, "armed", False):
                return real(*args, **kwargs)
            index = self.calls
            self.calls += 1
            if index == self.crash_at and not self.died:
                self.died = True
                raise _Died(f"died at {name}{args}")
            return real(*args, **kwargs)

        return counted


@pytest.fixture(scope="module")
def grid():
    cells = tiny_spec().cells()
    assert len(cells) == 4
    return cells, {cell.cache_key(): cell.execute() for cell in cells}


def _victim_key(cells):
    """Claims within a run go by key: the first cell claimed."""
    return min(cell.cache_key() for cell in cells)


def _published_queue(queue_dir, cells, victim_attempt):
    """A registered run holding the whole grid, the victim already on
    attempt ``victim_attempt``."""
    queue = WorkQueue(queue_dir)
    queue.write_config(
        cache_dir=queue.default_results_dir(), max_attempts=MAX_ATTEMPTS,
        lease_timeout_s=LEASE_TIMEOUT_S, run_id=RUN,
    )
    for cell in cells:
        is_victim = cell.cache_key() == _victim_key(cells)
        queue.enqueue(cell, run=RUN,
                      attempt=victim_attempt if is_victim else 1)
    return queue


def _watch_until_stale(queue):
    """Two looks a full lease timeout apart: the next one may reclaim."""
    assert queue.reclaim_stale(LEASE_TIMEOUT_S, MAX_ATTEMPTS) == 0
    time.sleep(LEASE_TIMEOUT_S * 1.5)


# Each transition: (the victim's attempt when the scene is set, a function
# setting the scene up to just before the transition and returning the
# transition itself as a no-argument callable, does the victim end in failed/).
def _claim_batch(queue, results):
    return lambda: queue.claim_batch(4)


def _complete(queue, results):
    (claim,) = queue.claim_batch(1)
    store = ResultCache(queue.default_results_dir())
    return lambda: queue.complete(
        claim, store, results[claim.name.key], 0.01, seq=1)


def _fail(queue, results):
    (claim,) = queue.claim_batch(1)
    return lambda: queue.fail(claim, "RuntimeError: boom", MAX_ATTEMPTS)


def _reclaim_stale(queue, results):
    queue.claim_batch(1)  # ... by a worker that then died silently
    reclaimer = WorkQueue(queue.queue_dir)
    _watch_until_stale(reclaimer)
    return lambda: reclaimer.reclaim_stale(LEASE_TIMEOUT_S, MAX_ATTEMPTS)


TRANSITIONS = {
    "claim_batch": (1, _claim_batch, False),
    "complete": (1, _complete, False),
    "fail-retry": (1, _fail, False),
    "fail-terminal": (MAX_ATTEMPTS, _fail, True),
    "reclaim-retry": (1, _reclaim_stale, False),
    "reclaim-terminal": (MAX_ATTEMPTS, _reclaim_stale, True),
}


def _survivors_drain(queue_dir):
    """A fresh observer (janitor, as a coordinator would be) and a fresh
    worker take the directory over; returns once the worker has exited."""
    survivor = threading.Thread(
        target=run_queue_worker, args=(queue_dir,),
        kwargs=dict(poll_interval_s=0.02, drain_timeout_s=30.0),
    )
    survivor.start()
    observer = WorkQueue(queue_dir)
    deadline = time.monotonic() + 20.0
    try:
        while observer.pending_tasks() or observer.active_leases():
            assert time.monotonic() < deadline, "queue never drained"
            observer.reclaim_stale(LEASE_TIMEOUT_S, MAX_ATTEMPTS)
            time.sleep(0.02)
    finally:
        observer.signal_stop(RUN)
        survivor.join(timeout=20.0)
    assert not survivor.is_alive()
    return observer


@pytest.mark.parametrize("transition", sorted(TRANSITIONS))
def test_a_crash_at_any_filesystem_call_is_recovered(
    transition, grid, tmp_path, monkeypatch
):
    cells, inline = grid
    victim_attempt, scene, ends_failed = TRANSITIONS[transition]
    crash_points = 0
    while True:
        queue_dir = str(tmp_path / f"crash-at-{crash_points}")
        queue = _published_queue(queue_dir, cells, victim_attempt)
        act = scene(queue, inline)
        dying_os = _DyingOs(crash_at=crash_points)
        with monkeypatch.context() as patch:
            patch.setattr(broker, "os", dying_os)
            patch.setattr(cache, "os", dying_os)
            try:
                act()
            except _Died:
                pass
        if not dying_os.died:
            break  # the transition ran to its end: every call was covered
        crash_points += 1

        observer = _survivors_drain(queue_dir)
        assert os.listdir(observer.tasks_dir) == []
        assert os.listdir(observer.leases_dir) == []
        store = ResultCache(observer.default_results_dir())
        failed = observer.failed_keys()
        assert failed == ([_victim_key(cells)] if ends_failed else [])
        for cell in cells:
            key = cell.cache_key()
            if key in failed:
                failure = observer.read_failure(key)
                assert failure["cache_key"] == key
                assert failure["attempts"] == MAX_ATTEMPTS
                continue
            assert_results_identical(store.load(key), inline[key])
            meta = observer.read_meta(key)
            if meta is not None:  # absent: died between result and meta
                assert meta["attempt"] <= 2, "the crash cost two attempts"
    assert crash_points == dying_os.calls >= 1


#: The coordinator's filesystem steps under test.
COORDINATOR_STEPS = ("write_config", "enqueue", "signal_stop")
COORDINATOR = dict(num_workers=0, lease_timeout_s=executors.MIN_LEASE_TIMEOUT_S,
                   poll_interval_s=0.02)


def _serving_worker(queue_dir):
    thread = threading.Thread(
        target=run_queue_worker, args=(queue_dir,),
        kwargs=dict(poll_interval_s=0.02, drain_timeout_s=60.0), daemon=True,
    )
    thread.start()
    return thread


def test_a_coordinator_crash_is_recovered(grid, tmp_path, monkeypatch):
    cells, inline = grid
    spec = tiny_spec(algorithms=("adpsgd",))
    scope = threading.local()

    def armed(method):
        def call(*args, **kwargs):
            scope.armed = True
            try:
                return method(*args, **kwargs)
            finally:
                scope.armed = False
        return call

    crash_points = 0
    while True:
        queue_dir = str(tmp_path / f"coordinator-crash-at-{crash_points}")
        serving = _serving_worker(queue_dir)
        dying_os = _DyingOs(crash_at=crash_points, scope=scope)
        with monkeypatch.context() as patch:
            patch.setattr(broker, "os", dying_os)
            patch.setattr(cache, "os", dying_os)
            for step in COORDINATOR_STEPS:
                patch.setattr(WorkQueue, step,
                              armed(getattr(WorkQueue, step)))
            try:
                executors.QueueExecutor(queue_dir, **COORDINATOR).run(
                    spec.cells(), None, lambda index, execution: None)
            except _Died:
                pass
        queue = WorkQueue(queue_dir)
        if dying_os.died:
            crash_points += 1
            if queue.list_runs():
                # The dead run stays active; once its tasks are drained and
                # its beats sit frozen for a lease timeout it is no longer
                # live, and the worker that was serving it leaves.
                serving.join(timeout=15.0)
                assert not serving.is_alive(), "worker outlived the dead run"
            else:
                # Died before registering: no run has been seen, so the
                # worker waits for one -- and serves the fresh sweep below.
                assert serving.is_alive()
            fresh = _serving_worker(queue_dir)
            sweep = run_sweep(spec, executor=executors.QueueExecutor(
                queue_dir, **COORDINATOR))
            fresh.join(timeout=15.0)
            assert not fresh.is_alive()
            for outcome in sweep.outcomes:
                assert_results_identical(
                    outcome.result, inline[outcome.cell.cache_key()])
        serving.join(timeout=15.0)
        assert not serving.is_alive()
        assert os.listdir(queue.tasks_dir) == []
        assert os.listdir(queue.leases_dir) == []
        assert not {"queue.json", "STOP"} & set(os.listdir(queue_dir))
        store = ResultCache(queue.default_results_dir())
        for cell in spec.cells():
            assert_results_identical(store.load(cell.cache_key()),
                                     inline[cell.cache_key()])
        if not dying_os.died:
            break  # the coordinator ran to its end: every call was covered
    # One record write, one task write per cell, one record rewrite.
    assert crash_points == dying_os.calls == 1 + len(spec.cells()) + 1


class TestOneCopy:
    """The lifecycle steps the broker writes down once stay written once."""

    @staticmethod
    def _calls(tree, dotted):
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and ast.unparse(node.func) == dotted]

    def test_one_method_renames_into_tasks(self):
        tree = ast.parse(inspect.getsource(broker))
        (queue_class,) = [node for node in tree.body
                          if isinstance(node, ast.ClassDef)
                          and node.name == "WorkQueue"]
        into_tasks = [
            method.name
            for method in queue_class.body
            if isinstance(method, ast.FunctionDef)
            for call in self._calls(method, "os.rename")
            if "task" in ast.unparse(call.args[1])
        ]
        assert into_tasks == ["_return_lease"]

    def test_one_json_reader_and_one_directory_listing(self):
        tree = ast.parse(inspect.getsource(broker))
        assert len(self._calls(tree, "json.load")) == 1
        assert len(self._calls(tree, "os.listdir")) == 1

    def test_every_queue_directory_write_lives_in_the_broker(self):
        tree = ast.parse(inspect.getsource(executors))
        assert self._calls(tree, "os.unlink") == []
        assert self._calls(tree, "os.rename") == []

    def test_one_cell_execution_from_a_meta_record(self):
        tree = ast.parse(inspect.getsource(executors.QueueExecutor))
        assert len(self._calls(tree, "CellOutcome")) == 1

    def test_imports_point_one_way(self):
        def imported(module):
            tree = ast.parse(inspect.getsource(module))
            return {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)} | {
                alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}

        service = {f"repro.experiments.{name}"
                   for name in ("cache", "broker", "worker", "executors")}
        assert imported(cache) & service == set()
        assert imported(broker) & service == {"repro.experiments.cache"}
        assert imported(worker) & service == {
            "repro.experiments.cache", "repro.experiments.broker"}

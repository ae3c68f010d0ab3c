"""A deterministic discrete-event simulator.

Minimal by design: a priority queue of ``(time, sequence, callback)`` and a
virtual clock. Ties in time are broken by insertion order (the monotonically
increasing sequence number), which makes every run a pure function of its
seed -- a property the test-suite relies on heavily.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

__all__ = ["Simulator"]


class Simulator:
    """Virtual clock plus event queue.

    Events are zero-argument callbacks; they may schedule further events.
    The clock only moves forward: scheduling in the past raises.
    """

    def __init__(self):
        self._now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = 0
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events waiting in the queue."""
        return len(self._queue)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute virtual ``time``.

        ``time`` must be finite: a NaN time would slip past the
        past-scheduling guard (every comparison against NaN is False) and
        poison the heap invariant, and an infinite time could park the
        clock at ``inf``.
        """
        if not math.isfinite(time):
            raise ValueError(f"event time must be finite, got {time}")
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now {self._now}")
        heapq.heappush(self._queue, (time, self._sequence, callback))
        self._sequence += 1

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after a non-negative finite ``delay``.

        :meth:`schedule_at`'s guards, pushed here directly (this is the
        per-event call): a finite ``now + delay`` is the finite-time guard
        -- it also catches a finite delay that overflows the clock -- and a
        non-negative delay is the past-scheduling guard.
        """
        time = self._now + delay
        if not math.isfinite(time):
            if not math.isfinite(delay):
                raise ValueError(f"delay must be finite, got {delay}")
            raise ValueError(f"event time must be finite, got {time}")
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        heapq.heappush(self._queue, (time, self._sequence, callback))
        self._sequence += 1

    def advance_to(self, time: float, *, events: int = 0) -> None:
        """Move the clock forward without draining the queue.

        The hook for external steppers (see
        :mod:`repro.simulation.batched`) that execute this simulator's
        events elsewhere: they advance the clock to the time they have
        reached and report how many events they executed on this
        simulator's behalf, keeping :attr:`now` and
        :attr:`events_processed` truthful.
        """
        if not math.isfinite(time):
            raise ValueError(f"time must be finite, got {time}")
        if time < self._now:
            raise ValueError(f"cannot advance to {time} < now {self._now}")
        if events < 0:
            raise ValueError(f"events must be >= 0, got {events}")
        self._now = float(time)
        self._events_processed += events

    def discard_pending(self) -> None:
        """Drop every event still queued; :attr:`now` and
        :attr:`events_processed` keep their values.

        For a finished run: the callbacks beyond its horizon are bound to
        the objects that scheduled them, so a queue kept past the run keeps
        those alive.
        """
        self._queue.clear()

    def step(self) -> bool:
        """Execute the earliest event. Returns False if the queue is empty."""
        if not self._queue:
            return False
        time, _, callback = heapq.heappop(self._queue)
        self._now = time
        self._events_processed += 1
        callback()
        return True

    def run(
        self,
        until_time: float | None = None,
        max_events: int | None = None,
        stop_condition: Callable[[], bool] | None = None,
    ) -> None:
        """Drain events until a stop criterion fires.

        Args:
            until_time: stop before executing any event scheduled strictly
                after this time (the clock ends at the last executed event,
                or at ``until_time`` if provided).
            max_events: hard cap on events executed by this call (a guard
                against accidental infinite self-scheduling loops).
            stop_condition: checked before each event; truthy halts the run.

        At least one of the three criteria must be supplied.
        """
        if until_time is None and max_events is None and stop_condition is None:
            raise ValueError("run() needs at least one stop criterion")
        # The event pop is inlined (rather than calling self.step) and the
        # queue bound to a local: this loop runs once per simulated event, so
        # attribute lookups here are a measurable share of total runtime.
        queue = self._queue
        heappop = heapq.heappop
        executed = 0
        while queue:
            if stop_condition is not None and stop_condition():
                return
            if max_events is not None and executed >= max_events:
                return
            if until_time is not None and queue[0][0] > until_time:
                self._now = until_time
                return
            time, _, callback = heappop(queue)
            self._now = time
            self._events_processed += 1
            callback()
            executed += 1
        if until_time is not None and self._now < until_time:
            self._now = until_time

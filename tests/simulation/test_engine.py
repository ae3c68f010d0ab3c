"""Unit tests for the discrete-event simulator."""

import pytest

from repro.simulation.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(3.0, lambda: order.append("c"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(2.0, lambda: order.append("b"))
        sim.run(until_time=10.0)
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        order = []
        for name in "abc":
            sim.schedule_at(1.0, lambda n=name: order.append(n))
        sim.run(until_time=10.0)
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run(until_time=10.0)
        assert seen == [5.0]

    def test_schedule_in_is_relative(self):
        sim = Simulator()
        times = []

        def first():
            times.append(sim.now)
            sim.schedule_in(2.5, lambda: times.append(sim.now))

        sim.schedule_at(1.0, first)
        sim.run(until_time=10.0)
        assert times == [1.0, 3.5]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run(until_time=10.0)
        with pytest.raises(ValueError, match="cannot schedule"):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            Simulator().schedule_in(-1.0, lambda: None)

    @pytest.mark.parametrize(
        "time", [float("nan"), float("inf"), float("-inf")]
    )
    def test_schedule_at_rejects_non_finite_time(self, time):
        # Regression: a NaN time slipped past the `time < now` guard (every
        # NaN comparison is False) and corrupted the heap order; an infinite
        # time parked the clock at inf.
        with pytest.raises(ValueError, match="finite"):
            Simulator().schedule_at(time, lambda: None)

    @pytest.mark.parametrize(
        "delay", [float("nan"), float("inf"), float("-inf")]
    )
    def test_schedule_in_rejects_non_finite_delay(self, delay):
        with pytest.raises(ValueError, match="finite"):
            Simulator().schedule_in(delay, lambda: None)

    def test_queue_stays_clean_after_rejected_time(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending == 0
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.run(until_time=2.0)
        assert fired == [1]

    def test_schedule_in_rejects_a_finite_delay_that_overflows_the_clock(self):
        """``now + delay`` is checked, not only ``delay``: a finite delay
        past the float range would park the event (and the clock) at inf."""
        sim = Simulator()
        sim.advance_to(1e308)
        sim.schedule_in(1.0, lambda: None)
        queue_before = list(sim._queue)
        with pytest.raises(ValueError, match="finite"):
            sim.schedule_in(1e308, lambda: None)
        assert sim._queue == queue_before and sim.pending == 1
        fired = []
        sim.schedule_in(0.0, lambda: fired.append(sim.now))
        sim.run(max_events=2)
        assert fired == [1e308]


class TestAdvanceTo:
    def test_moves_clock_and_event_counter(self):
        sim = Simulator()
        sim.advance_to(3.0, events=7)
        assert sim.now == 3.0
        assert sim.events_processed == 7

    def test_defaults_to_zero_events(self):
        sim = Simulator()
        sim.advance_to(1.5)
        assert sim.events_processed == 0

    def test_rejects_regression_and_non_finite(self):
        sim = Simulator()
        sim.advance_to(2.0)
        with pytest.raises(ValueError, match="cannot advance"):
            sim.advance_to(1.0)
        with pytest.raises(ValueError, match="finite"):
            sim.advance_to(float("nan"))
        with pytest.raises(ValueError, match="events"):
            sim.advance_to(3.0, events=-1)


class TestRun:
    def test_until_time_excludes_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(100.0, lambda: fired.append(2))
        sim.run(until_time=50.0)
        assert fired == [1]
        assert sim.now == 50.0
        assert sim.pending == 1

    def test_clock_lands_on_until_time_when_queue_drains(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run(until_time=9.0)
        assert sim.now == 9.0

    def test_max_events_cap(self):
        sim = Simulator()
        count = [0]

        def loop():
            count[0] += 1
            sim.schedule_in(1.0, loop)

        sim.schedule_at(0.0, loop)
        sim.run(max_events=7)
        assert count[0] == 7

    def test_stop_condition(self):
        sim = Simulator()
        count = [0]

        def loop():
            count[0] += 1
            sim.schedule_in(1.0, loop)

        sim.schedule_at(0.0, loop)
        sim.run(until_time=1e9, stop_condition=lambda: count[0] >= 4)
        assert count[0] == 4

    def test_requires_some_stop_criterion(self):
        with pytest.raises(ValueError, match="stop criterion"):
            Simulator().run()

    def test_step_returns_false_on_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run(until_time=10.0)
        assert sim.events_processed == 3

    def test_events_may_schedule_new_events(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                sim.schedule_in(1.0, lambda: chain(depth + 1))

        sim.schedule_at(0.0, lambda: chain(0))
        sim.run(until_time=10.0)
        assert seen == [0, 1, 2, 3]

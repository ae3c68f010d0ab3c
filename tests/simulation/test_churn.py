"""Unit tests for ChurnSchedule (validation, generators, activity queries)."""

import numpy as np
import pytest

from repro.simulation.churn import ChurnEvent, ChurnSchedule


class TestChurnEvent:
    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="leave"):
            ChurnEvent(1.0, 0, "vanish")

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError, match="time > 0"):
            ChurnEvent(0.0, 0, "leave")


class TestValidation:
    def test_tuples_accepted_and_sorted(self):
        schedule = ChurnSchedule(4, [(12.0, 1, "join"), (5.0, 1, "leave")])
        assert [e.kind for e in schedule.events] == ["leave", "join"]
        assert schedule.events[0].time == 5.0

    def test_double_leave_rejected(self):
        with pytest.raises(ValueError, match="leaves twice"):
            ChurnSchedule(4, [(5.0, 1, "leave"), (6.0, 1, "leave")])

    def test_join_while_active_rejected(self):
        with pytest.raises(ValueError, match="while still active"):
            ChurnSchedule(4, [(5.0, 1, "join")])

    def test_min_active_floor_enforced(self):
        with pytest.raises(ValueError, match="min_active"):
            ChurnSchedule(3, [(1.0, 0, "leave"), (2.0, 1, "leave")])
        # Staggered downtime keeps 2 alive: fine.
        ChurnSchedule(3, [(1.0, 0, "leave"), (2.0, 0, "join"), (3.0, 1, "leave")])

    def test_worker_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ChurnSchedule(3, [(1.0, 3, "leave")])

    def test_leave_without_rejoin(self):
        schedule = ChurnSchedule(4, [(10.0, 2, "leave")])
        assert len(schedule) == 1

    def test_tie_order_is_stable(self):
        a = ChurnSchedule(5, [(1.0, 2, "leave"), (1.0, 1, "leave")])
        b = ChurnSchedule(5, [(1.0, 1, "leave"), (1.0, 2, "leave")])
        assert a.events == b.events
        assert [e.worker for e in a.events] == [1, 2]


class TestConstructors:
    def test_random_is_deterministic(self):
        a = ChurnSchedule.random(6, horizon_s=300.0, num_departures=3, downtime_s=20.0, seed=9)
        b = ChurnSchedule.random(6, horizon_s=300.0, num_departures=3, downtime_s=20.0, seed=9)
        assert a == b
        c = ChurnSchedule.random(6, horizon_s=300.0, num_departures=3, downtime_s=20.0, seed=10)
        assert a != c

    def test_random_every_leave_has_a_join_inside_horizon(self):
        schedule = ChurnSchedule.random(
            6, horizon_s=300.0, num_departures=4, downtime_s=10.0, seed=1
        )
        leaves = [e for e in schedule.events if e.kind == "leave"]
        joins = [e for e in schedule.events if e.kind == "join"]
        assert len(leaves) == len(joins) == 4
        assert all(0.0 < e.time <= 300.0 for e in schedule.events)

    def test_random_downtime_must_fit_window(self):
        with pytest.raises(ValueError, match="window"):
            ChurnSchedule.random(6, horizon_s=100.0, num_departures=4, downtime_s=30.0)

    def test_random_zero_departures(self):
        assert len(ChurnSchedule.random(4, horizon_s=100.0, num_departures=0)) == 0


class TestActiveAt:
    def test_transitions_apply_at_their_timestamp(self):
        schedule = ChurnSchedule(3, [(5.0, 1, "leave"), (9.0, 1, "join")])
        np.testing.assert_array_equal(schedule.active_at(4.9), [True, True, True])
        np.testing.assert_array_equal(schedule.active_at(5.0), [True, False, True])
        np.testing.assert_array_equal(schedule.active_at(8.9), [True, False, True])
        np.testing.assert_array_equal(schedule.active_at(9.0), [True, True, True])

    def test_min_active_holds_at_every_event_time(self):
        schedule = ChurnSchedule.random(
            8, horizon_s=400.0, num_departures=5, downtime_s=20.0, seed=3
        )
        for event in schedule.events:
            assert schedule.active_at(event.time).sum() >= schedule.min_active


class TestHashability:
    def test_schedule_and_scenario_are_hashable(self):
        from repro.experiments.scenarios import build_scenario
        a = ChurnSchedule(4, [(5.0, 1, "leave"), (9.0, 1, "join")])
        b = ChurnSchedule(4, [(5.0, 1, "leave"), (9.0, 1, "join")])
        assert hash(a) == hash(b) and a == b
        assert len({a, b}) == 1
        # The frozen Scenario dataclass embedding a schedule stays hashable.
        assert isinstance(hash(build_scenario("churn", num_workers=4)), int)

"""Property suite (hypothesis) for the time-varying topology substrate.

Trainers and the monitor assume four things about a
:class:`~repro.graph.topology.DynamicTopology`, mirroring the link-model
invariants of ``tests/network/test_link_invariants.py``:

1. **Symmetry at every t** -- ``adjacency_at(t)`` is symmetric with no
   self-loops for all probe times (the live graph stays undirected).
2. **Connectivity where promised** -- with ``require_connected`` every
   segment's live graph satisfies Assumption 1 (and ``EdgeSchedule.random``
   guarantees it by construction, drawing only non-bridge edges).
3. **Pure function of time** -- queries never advance hidden randomness:
   any query order, repeated queries, and fresh instances built from the
   same inputs reproduce the identical graph history (the bit-identical
   replay guarantee rests on this).
4. **Consistency** -- ``adjacency_at``/``topology_at``/
   ``edge_signature_at`` agree with each other and with the schedule's own
   ``down_edges_at`` bookkeeping; the live edge set is always a subset of
   the base graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.topology import (
    DynamicTopology,
    EdgeSchedule,
    Topology,
    make_topology,
)

workers = st.integers(min_value=4, max_value=10)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
failure_counts = st.integers(min_value=1, max_value=4)


def _base(m: int, seed: int) -> Topology:
    """A 2-edge-connected base graph (ring + chords) -- every edge failable."""
    kind = ("full", "ring", "expander")[seed % 3]
    return make_topology(kind, m, seed=seed)


def _dynamic(m: int, seed: int, failures: int) -> DynamicTopology:
    base = _base(m, seed)
    schedule = EdgeSchedule.random(
        base, horizon_s=100.0, num_failures=failures, downtime_s=10.0, seed=seed
    )
    return DynamicTopology(base, schedule)


def _probe_times(dynamic: DynamicTopology) -> list[float]:
    """Times straddling every flip boundary, plus t=0 and a far tail."""
    times = [0.0, 1e6]
    for flip in dynamic.flip_times():
        times.extend([np.nextafter(flip, 0.0), flip, np.nextafter(flip, np.inf)])
    return times


class TestDynamicTopologyInvariants:
    @given(m=workers, seed=seeds, failures=failure_counts)
    @settings(max_examples=30, deadline=None)
    def test_symmetric_without_self_loops_at_all_times(self, m, seed, failures):
        dynamic = _dynamic(m, seed, failures)
        for t in _probe_times(dynamic):
            adjacency = dynamic.adjacency_at(t)
            assert np.array_equal(adjacency, adjacency.T)
            assert not np.any(np.diag(adjacency))

    @given(m=workers, seed=seeds, failures=failure_counts)
    @settings(max_examples=30, deadline=None)
    def test_connected_in_every_segment_when_promised(self, m, seed, failures):
        dynamic = _dynamic(m, seed, failures)
        assert dynamic.schedule.require_connected
        for t in _probe_times(dynamic):
            assert dynamic.topology_at(t).is_connected()

    @given(m=workers, seed=seeds, failures=failure_counts)
    @settings(max_examples=30, deadline=None)
    def test_live_edges_subset_of_base(self, m, seed, failures):
        dynamic = _dynamic(m, seed, failures)
        for t in _probe_times(dynamic):
            live = dynamic.adjacency_at(t)
            assert not np.any(live & ~dynamic.adjacency), (
                "live edge set leaked outside the base graph"
            )

    @given(m=workers, seed=seeds, failures=failure_counts)
    @settings(max_examples=30, deadline=None)
    def test_pure_function_of_time_any_query_order(self, m, seed, failures):
        """Forward, reversed, and interleaved scans agree; a fresh instance
        from the same inputs replays the identical history (no hidden RNG)."""
        dynamic = _dynamic(m, seed, failures)
        times = _probe_times(dynamic)
        forward = [dynamic.adjacency_at(t).copy() for t in times]
        for t in reversed(times):  # perturb internal state, if any
            dynamic.topology_at(t)
            dynamic.edge_signature_at(t)
        backward = [dynamic.adjacency_at(t).copy() for t in reversed(times)]
        for a, b in zip(forward, backward[::-1]):
            np.testing.assert_array_equal(a, b)
        fresh = _dynamic(m, seed, failures)
        for t in times:
            np.testing.assert_array_equal(
                dynamic.adjacency_at(t), fresh.adjacency_at(t)
            )
        assert fresh == dynamic

    @given(m=workers, seed=seeds, failures=failure_counts)
    @settings(max_examples=30, deadline=None)
    def test_queries_agree_with_each_other_and_the_schedule(
        self, m, seed, failures
    ):
        dynamic = _dynamic(m, seed, failures)
        for t in _probe_times(dynamic):
            live = dynamic.adjacency_at(t)
            segment = dynamic.topology_at(t)
            np.testing.assert_array_equal(live, segment.adjacency)
            down = dynamic.schedule.down_edges_at(t)
            for a, b in dynamic.edges():
                expected = (a, b) not in down
                assert segment.has_edge(a, b) == expected
                assert bool(live[a, b]) == expected
            for worker in range(dynamic.num_workers):
                np.testing.assert_array_equal(
                    segment.neighbors(worker), np.flatnonzero(live[worker])
                )

    @given(m=workers, seed=seeds, failures=failure_counts)
    @settings(max_examples=30, deadline=None)
    def test_signatures_identify_edge_sets(self, m, seed, failures):
        """Equal live edge sets <-> equal signatures, across all segments."""
        dynamic = _dynamic(m, seed, failures)
        seen: dict[bytes, np.ndarray] = {}
        for t in _probe_times(dynamic):
            signature = dynamic.edge_signature_at(t)
            live = dynamic.adjacency_at(t)
            if signature in seen:
                np.testing.assert_array_equal(live, seen[signature])
            seen[signature] = live
        # The all-up segment matches the base graph's own signature.
        assert dynamic.edge_signature_at(0.0) == Topology(
            dynamic.adjacency
        ).edge_signature()

    @given(m=workers, seed=seeds, failures=failure_counts)
    @settings(max_examples=30, deadline=None)
    def test_at_most_one_edge_down_for_random_schedules(self, m, seed, failures):
        """EdgeSchedule.random spreads failures over disjoint windows."""
        dynamic = _dynamic(m, seed, failures)
        base_edges = int(np.triu(dynamic.adjacency, k=1).sum())
        for t in _probe_times(dynamic):
            live_edges = int(np.triu(dynamic.adjacency_at(t), k=1).sum())
            assert base_edges - live_edges in (0, 1)


class TestScheduleValidation:
    def test_flapping_constructor(self):
        flapping = EdgeSchedule.flapping(
            5, (0, 1), period_s=10.0, horizon_s=35.0
        )
        # 3 full cycles fit: down during [5,10), [15,20), [25,30).
        assert len(flapping) == 6
        assert flapping.down_edges_at(6.0) == {(0, 1)}
        assert flapping.down_edges_at(12.0) == set()

    def test_double_fail_rejected(self):
        with pytest.raises(ValueError, match="fails twice"):
            EdgeSchedule(4, [(1.0, 0, 1, "fail"), (2.0, 0, 1, "fail")])

    def test_repair_while_up_rejected(self):
        with pytest.raises(ValueError, match="still up"):
            EdgeSchedule(4, [(1.0, 0, 1, "repair")])

    def test_time_zero_rejected(self):
        with pytest.raises(ValueError, match="time > 0"):
            EdgeSchedule(4, [(0.0, 0, 1, "fail")])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time > 0"):
            EdgeSchedule(4, [(-1.0, 0, 1, "fail")])

    @pytest.mark.parametrize("a, b", [(0, 9), (9, 0), (-1, 2)])
    def test_out_of_range_edge_rejected(self, a, b):
        with pytest.raises(ValueError, match="out of range for M=4"):
            EdgeSchedule(4, [(1.0, a, b, "fail")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            EdgeSchedule(4, [(1.0, 2, 2, "fail")])

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValueError, match="'fail' or 'repair'"):
            EdgeSchedule(4, [(1.0, 0, 1, "drop")])

    def test_too_few_workers_rejected(self):
        with pytest.raises(ValueError, match="at least 2 workers"):
            EdgeSchedule(1, [])

    def test_repair_scheduled_before_its_fail_rejected(self):
        """Events are ordered by time, so a repair listed after its fail but
        timed before it is a repair of an edge that is still up."""
        with pytest.raises(ValueError, match="still up"):
            EdgeSchedule(4, [(4.0, 0, 1, "fail"), (2.0, 0, 1, "repair")])

    def test_event_and_endpoint_order_normalized(self):
        """Input order and endpoint order do not matter: the schedule sorts
        by (time, edge) and stores each edge as (low, high)."""
        a = EdgeSchedule(4, [(5.0, 2, 1, "fail"), (4.0, 1, 0, "repair"),
                             (2.0, 1, 0, "fail")])
        b = EdgeSchedule(4, [(2.0, 0, 1, "fail"), (4.0, 0, 1, "repair"),
                             (5.0, 1, 2, "fail")])
        assert a == b and hash(a) == hash(b)
        assert [event.edge for event in a.events] == [(0, 1), (0, 1), (1, 2)]
        assert a.down_edges_at(3.0) == {(0, 1)}
        assert a.down_edges_at(6.0) == {(1, 2)}

    def test_schedule_for_another_worker_count_rejected(self):
        schedule = EdgeSchedule(5, [(1.0, 0, 1, "fail")])
        with pytest.raises(ValueError, match="schedule is for 5 workers"):
            DynamicTopology(Topology.ring(6), schedule)

    def test_unknown_edge_rejected_by_dynamic_topology(self):
        ring = Topology.ring(5)
        schedule = EdgeSchedule(5, [(1.0, 0, 2, "fail")])  # not a ring edge
        with pytest.raises(ValueError, match="does not contain"):
            DynamicTopology(ring, schedule)

    def test_disconnecting_schedule_rejected_when_promised(self):
        ring = Topology.ring(4)
        # Two simultaneous ring-edge failures split the cycle.
        schedule = EdgeSchedule(
            4, [(1.0, 0, 1, "fail"), (1.0, 2, 3, "fail")]
        )
        with pytest.raises(ValueError, match="disconnects"):
            DynamicTopology(ring, schedule)
        relaxed = EdgeSchedule(
            4, [(1.0, 0, 1, "fail"), (1.0, 2, 3, "fail")],
            require_connected=False,
        )
        dynamic = DynamicTopology(ring, relaxed)
        assert not dynamic.topology_at(1.0).is_connected()

    def test_random_on_a_tree_rejected(self):
        with pytest.raises(ValueError, match="bridge"):
            EdgeSchedule.random(Topology.star(5), horizon_s=100.0, num_failures=1)

    def test_downtime_must_fit_window(self):
        with pytest.raises(ValueError, match="does not fit"):
            EdgeSchedule.random(
                Topology.ring(5), horizon_s=20.0, num_failures=2, downtime_s=15.0
            )

    def test_static_topology_answers_time_queries_trivially(self):
        ring = Topology.ring(5)
        assert not ring.is_dynamic
        assert ring.flip_times() == ()
        assert ring.topology_at(123.0) is ring
        np.testing.assert_array_equal(ring.adjacency_at(7.0), ring.adjacency)
        assert ring.edge_signature_at(0.0) == ring.edge_signature_at(1e9)

"""Unit tests for repro.network.links."""

import numpy as np
import pytest

from repro.network.cluster import ClusterSpec
from repro.network.links import (
    DynamicSlowdownLinks,
    StaticLinks,
    TraceLinks,
    multi_cloud_links,
)


def make_static(num_workers=4, bandwidth=100.0, latency=0.001):
    bw = np.full((num_workers, num_workers), bandwidth)
    np.fill_diagonal(bw, np.inf)
    lat = np.full((num_workers, num_workers), latency)
    np.fill_diagonal(lat, 0.0)
    return StaticLinks(bw, lat)


class TestStaticLinks:
    def test_point_queries(self):
        links = make_static(bandwidth=50.0, latency=0.002)
        assert links.bandwidth(0, 1, 123.0) == 50.0
        assert links.latency(1, 2, 0.0) == 0.002

    def test_from_cluster(self):
        cluster = ClusterSpec((2, 2))
        links = StaticLinks(cluster.bandwidth_matrix(), cluster.latency_matrix())
        assert links.num_workers == 4
        assert links.bandwidth(0, 1, 0.0) > links.bandwidth(0, 2, 0.0)

    def test_bandwidth_matrix_snapshot(self):
        links = make_static(num_workers=3)
        matrix = links.bandwidth_matrix(0.0)
        assert matrix.shape == (3, 3)
        assert np.isinf(matrix[1, 1])

    def test_rejects_nonpositive_bandwidth(self):
        bw = np.ones((2, 2))
        bw[0, 1] = 0.0
        with pytest.raises(ValueError, match="positive"):
            StaticLinks(bw, np.zeros((2, 2)))

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="non-negative"):
            StaticLinks(np.ones((2, 2)), -np.ones((2, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_latency(self, value):
        with pytest.raises(ValueError, match="finite"):
            StaticLinks(np.ones((2, 2)), np.full((2, 2), value))

    def test_out_of_range_pair(self):
        links = make_static(num_workers=3)
        with pytest.raises(ValueError, match="out of range"):
            links.bandwidth(0, 9, 0.0)


class TestDynamicSlowdownLinks:
    def test_exactly_one_link_slowed(self):
        dyn = DynamicSlowdownLinks(make_static(), period_s=10.0, seed=1)
        slowed = dyn.slowed_links(5.0)
        assert len(slowed) == 1
        (pair, factor), = slowed.items()
        assert 2.0 <= factor <= 100.0
        assert pair[0] < pair[1]

    def test_deterministic_in_time(self):
        dyn = DynamicSlowdownLinks(make_static(), period_s=10.0, seed=1)
        assert dyn.slowed_links(3.0) == dyn.slowed_links(7.0)
        # A second instance with the same seed agrees.
        dyn2 = DynamicSlowdownLinks(make_static(), period_s=10.0, seed=1)
        assert dyn.slowed_links(3.0) == dyn2.slowed_links(3.0)

    def test_rotation_changes_link_eventually(self):
        dyn = DynamicSlowdownLinks(make_static(), period_s=10.0, seed=2)
        pairs = {tuple(dyn.slowed_links(t).keys())[0] for t in (5.0, 15.0, 25.0, 35.0, 45.0)}
        assert len(pairs) > 1

    def test_bandwidth_divided_by_factor(self):
        dyn = DynamicSlowdownLinks(
            make_static(bandwidth=100.0), period_s=10.0,
            slowdown_range=(4.0, 4.0), seed=3,
        )
        (a, b), = dyn.slowed_links(0.0).keys()
        assert dyn.bandwidth(a, b, 0.0) == pytest.approx(25.0)
        assert dyn.bandwidth(b, a, 0.0) == pytest.approx(25.0)  # undirected

    def test_unaffected_links_keep_base_speed(self):
        dyn = DynamicSlowdownLinks(make_static(bandwidth=100.0), period_s=10.0, seed=3)
        slowed = set(dyn.slowed_links(0.0))
        for a in range(4):
            for b in range(a + 1, 4):
                if (a, b) not in slowed:
                    assert dyn.bandwidth(a, b, 0.0) == 100.0

    def test_latency_passthrough(self):
        dyn = DynamicSlowdownLinks(make_static(latency=0.005), period_s=10.0, seed=0)
        assert dyn.latency(0, 1, 0.0) == 0.005

    def test_negative_time_rejected(self):
        dyn = DynamicSlowdownLinks(make_static(), period_s=10.0)
        with pytest.raises(ValueError, match="time"):
            dyn.bandwidth(0, 1, -1.0)

    def test_out_of_range_pair_rejected_through_the_wrapper(self):
        dyn = DynamicSlowdownLinks(make_static(4), period_s=10.0)
        with pytest.raises(ValueError, match="out of range"):
            dyn.bandwidth(0, 9, 0.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError, match="slowdown_range"):
            DynamicSlowdownLinks(make_static(), slowdown_range=(0.5, 2.0))

    def test_multiple_slow_links(self):
        dyn = DynamicSlowdownLinks(make_static(6), period_s=10.0, num_slow_links=3, seed=0)
        assert len(dyn.slowed_links(0.0)) == 3

    def test_one_generator_per_change_of_interval(self, monkeypatch):
        """The slowed-link dict is a pure function of (seed, interval); the
        model remembers the last interval it was asked about, so a trainer
        that queries the same interval thousands of times builds one
        Generator, and asking out of order changes no answer."""
        built = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        dyn = DynamicSlowdownLinks(make_static(6), period_s=10.0, num_slow_links=2, seed=4)
        first = dyn.slowed_links(35.0)  # interval 3
        for a, b in ((0, 1), (2, 5), (4, 3)):
            dyn.bandwidth(a, b, 30.0)
            dyn.bandwidth(a, b, 39.9)
        dyn.bandwidth_row(2, 31.0)
        assert len(built) == 1
        other = dyn.slowed_links(5.0)  # interval 0
        again = dyn.slowed_links(35.0)  # back to interval 3
        assert len(built) == 3
        assert again == first and other != first
        fresh = DynamicSlowdownLinks(make_static(6), period_s=10.0, num_slow_links=2, seed=4)
        assert fresh.slowed_links(35.0) == first and fresh.slowed_links(5.0) == other

    def test_slowed_links_hands_out_a_copy(self):
        dyn = DynamicSlowdownLinks(make_static(bandwidth=100.0), period_s=10.0,
                                   slowdown_range=(4.0, 4.0), seed=3)
        slowed = dyn.slowed_links(0.0)
        (a, b), = slowed
        slowed.clear()
        assert dyn.bandwidth(a, b, 0.0) == pytest.approx(25.0)


class TestTraceLinks:
    def make_trace(self):
        fast = np.full((3, 3), 100.0)
        slow = np.full((3, 3), 10.0)
        latency = np.zeros((3, 3))
        return TraceLinks([(0.0, fast), (50.0, slow)], latency)

    def test_segment_selection(self):
        trace = self.make_trace()
        assert trace.bandwidth(0, 1, 0.0) == 100.0
        assert trace.bandwidth(0, 1, 49.9) == 100.0
        assert trace.bandwidth(0, 1, 50.0) == 10.0
        assert trace.bandwidth(0, 1, 1e9) == 10.0

    def test_self_link_free(self):
        trace = self.make_trace()
        assert np.isinf(trace.bandwidth(1, 1, 0.0))
        assert trace.latency(1, 1, 0.0) == 0.0

    def test_first_segment_must_start_at_zero(self):
        with pytest.raises(ValueError, match="time 0"):
            TraceLinks([(1.0, np.ones((2, 2)))], np.zeros((2, 2)))

    def test_segments_must_increase(self):
        matrix = np.ones((2, 2))
        with pytest.raises(ValueError, match="increasing"):
            TraceLinks([(0.0, matrix), (5.0, matrix), (5.0, matrix)], np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            TraceLinks([(0.0, np.ones((2, 2))), (1.0, np.ones((3, 3)))], np.zeros((2, 2)))


class TestMultiCloudLinks:
    def test_default_six_regions(self):
        links = multi_cloud_links()
        assert links.num_workers == 6

    def test_same_continent_faster(self):
        links = multi_cloud_links()
        # us-west(0) <-> us-east(1) same group; us-west(0) <-> tokyo(5) cross.
        assert links.bandwidth(0, 1, 0.0) > links.bandwidth(0, 5, 0.0)
        assert links.latency(0, 1, 0.0) < links.latency(0, 5, 0.0)

    def test_twelve_x_spread(self):
        links = multi_cloud_links()
        ratio = links.bandwidth(0, 1, 0.0) / links.bandwidth(0, 5, 0.0)
        assert ratio == pytest.approx(12.0)

    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError, match="unknown regions"):
            multi_cloud_links(("us-west", "mars"))


class TestTraceLoaders:
    def test_json_missing_segments_rejected(self):
        import io
        with pytest.raises(ValueError, match="segments"):
            TraceLinks.from_json({"num_workers": 2, "latency": 0.0})

    def test_json_scalar_without_num_workers_rejected(self):
        with pytest.raises(ValueError, match="num_workers"):
            TraceLinks.from_json({
                "latency": 0.0,
                "segments": [{"start": 0.0, "bandwidth": 1e8}],
            })

    def test_json_file_roundtrip(self, tmp_path):
        import json
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({
            "num_workers": 3, "latency": 0.01,
            "segments": [{"start": 0.0, "bandwidth": 2e8},
                         {"start": 10.0, "bandwidth": 4e7}],
        }))
        trace = TraceLinks.from_json(str(path))
        assert trace.bandwidth(0, 2, 5.0) == 2e8
        assert trace.bandwidth(0, 2, 10.0) == 4e7
        assert trace.latency(1, 2, 0.0) == 0.01

    def test_csv_time_zero_must_cover_all_pairs(self):
        import io
        with pytest.raises(ValueError, match="cover every pair"):
            TraceLinks.from_csv(io.StringIO("0,0,1,100\n"), num_workers=3)

    def test_csv_must_start_at_zero(self):
        import io
        with pytest.raises(ValueError, match="start at time 0"):
            TraceLinks.from_csv(io.StringIO("5,0,1,100\n"), num_workers=2)

    def test_csv_self_link_rejected(self):
        import io
        with pytest.raises(ValueError, match="self-link"):
            TraceLinks.from_csv(io.StringIO("0,1,1,100\n"), num_workers=2)

    def test_nonpositive_trace_bandwidth_rejected(self):
        matrix = np.full((2, 2), 100.0)
        bad = matrix.copy()
        bad[0, 1] = 0.0
        with pytest.raises(ValueError, match="positive"):
            TraceLinks([(0.0, matrix), (5.0, bad)], np.zeros((2, 2)))


class TestTraceGenerators:
    def test_diurnal_oscillates_within_amplitude(self):
        from repro.network.links import diurnal_trace
        base = 1e8
        trace = diurnal_trace(3, duration_s=600.0, step_s=10.0, period_s=300.0,
                              base_bandwidth=base, amplitude=0.5, seed=0)
        values = [trace.bandwidth(0, 1, t) for t in np.arange(0.0, 600.0, 10.0)]
        assert min(values) >= base * 0.5 - 1e-6
        assert max(values) <= base * 1.5 + 1e-6
        assert max(values) - min(values) > base * 0.5  # genuinely oscillates

    def test_random_walk_respects_clip_range(self):
        from repro.network.links import random_walk_trace
        base = 1e8
        trace = random_walk_trace(3, duration_s=2000.0, step_s=10.0, sigma=0.5,
                                  base_bandwidth=base, factor_range=(0.1, 1.5), seed=2)
        for t in np.arange(0.0, 2000.0, 50.0):
            matrix = trace.bandwidth_matrix(t)
            off = matrix[~np.eye(3, dtype=bool)]
            assert np.all(off >= base * 0.1 - 1e-6)
            assert np.all(off <= base * 1.5 + 1e-6)

    def test_random_walk_starts_at_base(self):
        from repro.network.links import random_walk_trace
        trace = random_walk_trace(3, duration_s=100.0, step_s=10.0,
                                  base_bandwidth=1e8, seed=5)
        assert trace.bandwidth(0, 1, 0.0) == 1e8

    def test_burst_only_ever_slows(self):
        from repro.network.links import burst_congestion_trace
        base = 1e8
        trace = burst_congestion_trace(4, duration_s=1000.0, step_s=10.0,
                                       burst_probability=0.4,
                                       burst_factor_range=(4.0, 10.0),
                                       base_bandwidth=base, seed=1)
        saw_burst = False
        for t in np.arange(0.0, 1000.0, 10.0):
            matrix = trace.bandwidth_matrix(t)
            off = matrix[~np.eye(4, dtype=bool)]
            assert np.all(off <= base + 1e-6)
            assert np.all(off >= base / 10.0 - 1e-6)
            if np.any(off < base * 0.9):
                saw_burst = True
        assert saw_burst

    def test_asymmetric_trace_rejected(self):
        asym = np.array([[0.0, 100.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            TraceLinks([(0.0, asym)], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            TraceLinks.from_json({
                "num_workers": 2, "latency": 0.0,
                "segments": [{"start": 0.0, "bandwidth": [[0, 1e2], [1.0, 0]]}],
            })

    @pytest.mark.parametrize("latency, segments, message", [
        (float("nan"), [(0.0, 1e8)], "latencies must be finite"),
        (float("inf"), [(0.0, 1e8)], "latencies must be finite"),
        (float("-inf"), [(0.0, 1e8)], "latencies must be finite"),
        (-0.5, [(0.0, 1e8)], "latencies must be finite and non-negative"),
        (0.0, [(0.0, 1e8), (float("nan"), 2e8)], "start times must be finite"),
        (0.0, [(0.0, 1e8), (float("inf"), 2e8)], "start times must be finite"),
        (0.0, [(0.0, float("nan"))], "bandwidths must be positive"),
    ])
    def test_non_finite_trace_rejected(self, latency, segments, message):
        """A NaN or infinite latency used to build and then fail as an event
        delay mid-run; a NaN start passed the strictly-increasing check."""
        with pytest.raises(ValueError, match=message):
            TraceLinks.from_json({
                "num_workers": 3, "latency": latency,
                "segments": [
                    {"start": start, "bandwidth": bandwidth}
                    for start, bandwidth in segments
                ],
            })

    def test_one_non_finite_latency_entry_rejected(self):
        """The latency check covers every pair, not just a scalar spelling."""
        bandwidth = np.full((3, 3), 1e8)
        latency = np.zeros((3, 3))
        latency[1, 2] = latency[2, 1] = np.nan
        with pytest.raises(ValueError, match="latencies must be finite"):
            TraceLinks([(0.0, bandwidth)], latency)


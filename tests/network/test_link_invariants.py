"""Property/invariant suite run against EVERY LinkSpeedModel subclass.

Trainers assume four things about a link model, none of which is stated in
the type system:

1. **Symmetry** -- ``bandwidth(a, b, t) == bandwidth(b, a, t)`` (the paper's
   links are undirected; DynamicSlowdownLinks slows the undirected pair).
2. **Strict positivity** -- off-diagonal bandwidths are ``> 0`` and
   latencies ``>= 0`` at every time (a zero bandwidth would make transfer
   durations infinite/NaN inside the communication model).
3. **Matrix consistency** -- ``bandwidth_matrix(t)`` agrees entry-by-entry
   with pairwise ``bandwidth`` calls (the monitor and SAPS read the matrix;
   the trainers read pairs).
4. **Time-determinism** -- the model is a pure function of time: the same
   ``t`` always yields the same value and queries never advance hidden RNG
   state, so any query order reproduces the same network history (the
   bit-identical-replay guarantee rests on this).

The suite is registered per *instance factory*; a completeness test fails
if someone adds a LinkSpeedModel subclass without wiring it in here.
"""

import numpy as np
import pytest

from repro.network.cluster import ClusterSpec
from repro.network.links import (
    ClusterLinks,
    DynamicSlowdownLinks,
    LinkSpeedModel,
    StaticLinks,
    TraceLinks,
    burst_congestion_trace,
    diurnal_trace,
    multi_cloud_links,
    random_walk_trace,
)

# Times straddling segment/period boundaries, including t=0 and a far tail.
PROBE_TIMES = (0.0, 1.0, 9.9, 10.0, 15.5, 29.9, 30.0, 61.0, 299.0, 1e6)


def _dense(cluster):
    return StaticLinks(cluster.bandwidth_matrix(), cluster.latency_matrix())


def _static():
    return _dense(ClusterSpec((2, 2)))


def _dynamic_slowdown():
    return DynamicSlowdownLinks(_static(), period_s=10.0, seed=3)


def _dynamic_multi_link():
    return DynamicSlowdownLinks(
        _dense(ClusterSpec((3, 3))),
        period_s=10.0, num_slow_links=3, seed=5,
    )


def _trace_explicit():
    fast = np.full((4, 4), 200.0)
    slow = np.full((4, 4), 20.0)
    latency = np.full((4, 4), 0.001)
    np.fill_diagonal(latency, 0.0)
    return TraceLinks([(0.0, fast), (30.0, slow), (60.0, fast)], latency)


def _trace_json():
    return TraceLinks.from_json({
        "num_workers": 3,
        "latency": 0.002,
        "segments": [
            {"start": 0.0, "bandwidth": 1e8},
            {"start": 10.0, "bandwidth": 5e7},
        ],
    })


# name -> zero-argument factory; every LinkSpeedModel subclass must appear
# in at least one factory's return type (see test_every_subclass_covered).
MODEL_FACTORIES = {
    "static-cluster": _static,
    "cluster-implicit": lambda: ClusterLinks(ClusterSpec((2, 2))),
    "cluster-dynamic-slowdown": lambda: DynamicSlowdownLinks(
        ClusterLinks(ClusterSpec((3, 2))), period_s=10.0, seed=11
    ),
    "static-multi-cloud": multi_cloud_links,
    "dynamic-slowdown": _dynamic_slowdown,
    "dynamic-multi-link": _dynamic_multi_link,
    "trace-explicit": _trace_explicit,
    "trace-json": _trace_json,
    "trace-diurnal": lambda: diurnal_trace(4, duration_s=120.0, step_s=10.0, seed=7),
    "trace-random-walk": lambda: random_walk_trace(4, duration_s=120.0, step_s=10.0, seed=7),
    "trace-burst": lambda: burst_congestion_trace(
        5, duration_s=120.0, step_s=10.0, burst_probability=0.3, seed=7
    ),
}


@pytest.fixture(params=sorted(MODEL_FACTORIES), ids=sorted(MODEL_FACTORIES))
def links(request):
    return MODEL_FACTORIES[request.param]()


def _all_subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out.add(sub)
        out |= _all_subclasses(sub)
    return out


def test_every_subclass_covered():
    """Adding a LinkSpeedModel without invariant coverage must fail here."""
    covered = {type(factory()) for factory in MODEL_FACTORIES.values()}
    missing = _all_subclasses(LinkSpeedModel) - covered
    assert not missing, (
        f"LinkSpeedModel subclasses without an invariant-suite factory: "
        f"{sorted(c.__name__ for c in missing)} -- add one to MODEL_FACTORIES"
    )


def test_cluster_links_bit_identical_to_static_from_cluster():
    """ClusterLinks answers every query exactly like dense StaticLinks over
    the cluster's matrices -- same cluster, O(N) state."""
    for layout in ((2, 2), (3, 2), (4, 4, 4, 4)):
        cluster = ClusterSpec(layout)
        implicit = ClusterLinks(cluster)
        dense = StaticLinks(cluster.bandwidth_matrix(), cluster.latency_matrix())
        m = cluster.num_workers
        for t in (0.0, 17.5, 1e6):
            np.testing.assert_array_equal(
                implicit.bandwidth_matrix(t), dense.bandwidth_matrix(t)
            )
            for a in range(m):
                np.testing.assert_array_equal(
                    implicit.bandwidth_row(a, t), dense.bandwidth_row(a, t)
                )
                for b in range(m):
                    assert implicit.latency(a, b, t) == dense.latency(a, b, t)
                    if a != b:
                        assert implicit.bandwidth(a, b, t) == dense.bandwidth(a, b, t)


class TestLinkInvariants:
    def test_bandwidth_symmetry(self, links):
        m = links.num_workers
        for t in PROBE_TIMES:
            for a in range(m):
                for b in range(a + 1, m):
                    assert links.bandwidth(a, b, t) == links.bandwidth(b, a, t), (
                        f"asymmetric bandwidth for pair ({a}, {b}) at t={t}"
                    )

    def test_strict_positivity(self, links):
        m = links.num_workers
        for t in PROBE_TIMES:
            for a in range(m):
                for b in range(m):
                    if a == b:
                        continue
                    assert links.bandwidth(a, b, t) > 0.0
                    assert links.latency(a, b, t) >= 0.0

    def test_matrix_consistent_with_pairwise(self, links):
        m = links.num_workers
        for t in PROBE_TIMES:
            matrix = links.bandwidth_matrix(t)
            assert matrix.shape == (m, m)
            assert np.all(np.isinf(np.diag(matrix)))
            for a in range(m):
                for b in range(m):
                    if a != b:
                        assert matrix[a, b] == links.bandwidth(a, b, t)

    def test_row_consistent_with_matrix(self, links):
        """``bandwidth_row(a, t)`` is exactly row ``a`` of the matrix.

        The row query is the O(N) path trainers and the monitor use on
        sparse/large graphs; it must never diverge from the O(N²) snapshot
        (including the +inf self-entry)."""
        m = links.num_workers
        for t in PROBE_TIMES:
            matrix = links.bandwidth_matrix(t)
            for a in range(m):
                row = links.bandwidth_row(a, t)
                assert row.shape == (m,)
                assert np.isinf(row[a])
                np.testing.assert_array_equal(row, matrix[a])

    def test_time_deterministic_repeated_queries(self, links):
        """Same t -> same value, no matter how often it is asked."""
        for t in PROBE_TIMES:
            first = links.bandwidth(0, 1, t)
            for _ in range(3):
                assert links.bandwidth(0, 1, t) == first
            first_lat = links.latency(0, 1, t)
            assert links.latency(0, 1, t) == first_lat

    def test_no_hidden_rng_state(self, links):
        """Query order must not matter: interleaved and reversed scans of the
        timeline give the same history as a forward scan (a model that
        advances an RNG per query fails this)."""
        m = links.num_workers
        forward = [links.bandwidth(0, 1, t) for t in PROBE_TIMES]
        # Perturb internal state, if any, with unrelated queries.
        for t in reversed(PROBE_TIMES):
            links.bandwidth_matrix(t)
            links.bandwidth(m - 1, m - 2, t)
        backward = [links.bandwidth(0, 1, t) for t in reversed(PROBE_TIMES)]
        assert forward == backward[::-1]

    def test_fresh_instance_agrees(self, links, request):
        """Two instances from the same factory describe the same network."""
        other = MODEL_FACTORIES[request.node.callspec.params["links"]]()
        for t in PROBE_TIMES:
            np.testing.assert_array_equal(
                links.bandwidth_matrix(t), other.bandwidth_matrix(t)
            )

    def test_out_of_range_pair_rejected(self, links):
        with pytest.raises(ValueError, match="out of range"):
            links.bandwidth(0, links.num_workers, 0.0)

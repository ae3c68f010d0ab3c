"""Property suite (hypothesis): the sparse CSR layer agrees with dense.

:class:`~repro.graph.topology.Topology` stores the graph as CSR neighbor
lists and materializes the dense ``adjacency`` lazily. Every query must be
answerable both ways with identical results -- for every ``TOPOLOGY_KINDS``
family (sparse-native constructors) and for every segment of a
:class:`DynamicTopology` (mask-built, never densified). The agreements
pinned here:

- ``neighbors(i)`` == the nonzero columns of dense row ``i``;
- ``edges()``/``num_edges()``/``degree()``/``has_edge()`` == their dense
  reconstructions;
- ``edge_signature()`` is representation-independent: a Topology rebuilt
  from the materialized dense matrix (CSR derived *from* dense) hashes and
  compares equal to the sparse-native original;
- ``DynamicTopology``'s at-time-t views (``adjacency_at``/``topology_at``/
  ``edge_signature_at``) agree with each other and with a
  dense round-trip of the live graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.topology import (
    TOPOLOGY_KINDS,
    DynamicTopology,
    EdgeSchedule,
    Topology,
    make_topology,
)

workers = st.integers(min_value=4, max_value=12)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _assert_sparse_dense_agree(topology: Topology) -> None:
    dense = topology.adjacency  # materializes the lazy dense matrix
    m = topology.num_workers
    assert dense.shape == (m, m) and dense.dtype == bool

    expected_edges = [
        (int(a), int(b))
        for a, b in zip(*np.nonzero(np.triu(dense, k=1)))
    ]
    assert topology.edges() == expected_edges
    assert topology.num_edges() == len(expected_edges)

    for i in range(m):
        np.testing.assert_array_equal(
            topology.neighbors(i), np.flatnonzero(dense[i])
        )
        assert topology.degree(i) == int(dense[i].sum())
    for a in range(m):
        for b in range(m):
            assert topology.has_edge(a, b) == bool(dense[a, b])

    # Signature/equality are representation-independent: round-tripping
    # through the dense matrix reconstructs an equal graph.
    rebuilt = Topology(dense)
    assert rebuilt.edge_signature() == topology.edge_signature()
    assert rebuilt == topology
    assert hash(rebuilt) == hash(topology)


class TestSparseDenseAgreement:
    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    @given(m=workers, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_every_topology_kind(self, kind, m, seed):
        topology = make_topology(kind, m, edge_probability=0.3, seed=seed)
        _assert_sparse_dense_agree(topology)

    @pytest.mark.parametrize("kind, m", [
        ("full", 2), ("ring", 3), ("star", 2), ("random", 2), ("expander", 4),
    ])
    @given(seed=seeds, p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_smallest_graph_of_every_kind(self, kind, m, seed, p):
        """Each kind at its fewest workers. Two Hamiltonian cycles over four
        workers must share an edge (K4 has only six), so the expander's pair
        list always repeats edges there; CSR must dedupe them."""
        topology = make_topology(kind, m, edge_probability=p, seed=seed)
        _assert_sparse_dense_agree(topology)

    @given(m=workers, seed=seeds, failures=st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_dynamic_topology_segments(self, m, seed, failures):
        base = make_topology(("full", "ring", "expander")[seed % 3], m, seed=seed)
        schedule = EdgeSchedule.random(
            base, horizon_s=100.0, num_failures=failures,
            downtime_s=10.0, seed=seed,
        )
        dynamic = DynamicTopology(base, schedule)
        probe_times = sorted(
            {0.0, 50.0, 99.0, 150.0}
            | {float(event.time) for event in schedule.events}
            | {float(event.time) + 0.5 for event in schedule.events}
        )
        for t in probe_times:
            live_dense = dynamic.adjacency_at(t)
            segment = dynamic.topology_at(t)
            np.testing.assert_array_equal(segment.adjacency, live_dense)
            _assert_sparse_dense_agree(segment)
            assert dynamic.edge_signature_at(t) == segment.edge_signature()
            assert (
                Topology(live_dense).edge_signature()
                == dynamic.edge_signature_at(t)
            )
            for a, b in base.edges():
                assert segment.has_edge(a, b) == bool(live_dense[a, b])

    @given(m=workers, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_dense_stays_lazy_for_structured_kinds(self, m, seed):
        """Construction + neighbor/edge queries never touch the dense cache."""
        topology = make_topology("expander", m, seed=seed)
        for i in range(topology.num_workers):
            topology.neighbors(i)
        topology.edges()
        topology.edge_signature()
        topology.is_connected()
        assert topology._dense is None

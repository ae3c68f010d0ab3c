"""networkx as a test-only oracle for the two graph searches ``src/`` owns.

``initially_fast_subgraph`` (SAPS's maximum-bandwidth spanning tree) and
``Topology.bridges`` (which edges ``EdgeSchedule.random`` may never fail)
used to call
``nx.maximum_spanning_tree`` / ``nx.bridges``; ``src/`` now runs Kruskal
with a union-find and an iterative Tarjan search itself, so that no
``repro`` command imports networkx. The golden runs depend on *which* tied
edge enters the tree, so the generated graphs here are tie-heavy on purpose
(one to three distinct bandwidths) and the comparison is on exact edge sets.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.saps import initially_fast_subgraph
from repro.graph.topology import Topology, make_topology


def networkx_fast_subgraph(topology, bandwidth):
    """The pre-Kruskal implementation, kept as the oracle."""
    graph = nx.Graph()
    graph.add_nodes_from(range(topology.num_workers))
    for a, b in topology.edges():
        graph.add_edge(a, b, bandwidth=float(bandwidth[a, b]))
    tree = nx.maximum_spanning_tree(graph, weight="bandwidth")
    return sorted(tuple(sorted(e)) for e in tree.edges())


@st.composite
def tied_weight_graphs(draw):
    """A graph (named family, or arbitrary and possibly disconnected) with
    a symmetric bandwidth matrix over very few distinct values."""
    n = draw(st.integers(4, 14))
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["full", "ring", "random", "expander", "star", "loose"]))
    rng = np.random.default_rng(seed)
    if kind == "loose":
        pairs = rng.integers(0, n, size=(draw(st.integers(1, 2 * n)), 2))
        topology = Topology.from_edges(
            n, sorted({(min(a, b), max(a, b)) for a, b in pairs.tolist() if a != b})
        )
    else:
        topology = make_topology(kind, n, edge_probability=0.4, seed=seed)
    levels = draw(st.integers(1, 3))
    bandwidth = rng.integers(1, levels + 1, size=(n, n)).astype(np.float64)
    return topology, np.maximum(bandwidth, bandwidth.T)


@settings(max_examples=200, deadline=None)
@given(tied_weight_graphs())
def test_kruskal_picks_networkx_tree(case):
    topology, bandwidth = case
    ours = initially_fast_subgraph(topology, bandwidth)
    assert ours.edges() == networkx_fast_subgraph(topology, bandwidth)


@settings(max_examples=200, deadline=None)
@given(tied_weight_graphs())
def test_bridges_match_networkx(case):
    topology, _ = case
    expected = {tuple(sorted(edge)) for edge in nx.bridges(topology.to_networkx())}
    assert topology.bridges() == expected


@pytest.mark.parametrize(
    "topology, expected",
    [
        (Topology.ring(6), set()),
        (Topology.star(5), {(0, 1), (0, 2), (0, 3), (0, 4)}),
        (Topology.star(2), {(0, 1)}),
        (Topology.fully_connected(4), set()),
        # two triangles joined by one edge, plus a pendant and an isolated worker
        (
            Topology.from_edges(
                9, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6)]
            ),
            {(2, 3), (5, 6)},
        ),
    ],
    ids=["ring", "star", "single-edge", "full", "barbell"],
)
def test_bridges_by_hand(topology, expected):
    assert topology.bridges() == expected


def test_bridge_search_is_iterative():
    """A 5000-worker path would overflow a recursive DFS."""
    n = 5000
    path = Topology.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    assert len(path.bridges()) == n - 1

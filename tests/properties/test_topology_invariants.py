"""Property suite (hypothesis) run against EVERY Topology constructor.

The trainers, the policy LP, and the scenario registry all assume four
things about a communication graph, none of which the type system states:

1. **Symmetry** -- ``d_im = d_mi`` (Section II-A: undirected graphs).
2. **No self-loops** -- ``d_ii = 0``.
3. **Connectivity where promised** -- every generator except ``from_edges``
   guarantees a connected graph (Assumption 1), including
   ``random_connected`` at ``edge_probability=0``.
4. **Seed-determinism** -- the randomized generators are pure functions of
   their RNG stream: the same seed always yields the identical graph (the
   sweep engine's cached == fresh guarantee rests on this).

The suite is registered per *constructor*; a completeness test fails if
someone adds a Topology classmethod (or a ``make_topology`` kind) without
wiring it in here -- mirroring ``tests/network/test_link_invariants.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.topology import (
    TOPOLOGY_KINDS,
    Topology,
    make_topology,
)

workers = st.integers(min_value=4, max_value=12)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def _random_edge_graph(m: int, seed: int, p: float) -> Topology:
    """from_edges over a random spanning path plus extra random edges."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(m)
    edges = list(zip(order[:-1].tolist(), order[1:].tolist()))
    for a in range(m):
        for b in range(a + 1, m):
            if rng.random() < p:
                edges.append((a, b))
    return Topology.from_edges(m, edges)


# constructor name -> (m, seed, p) -> Topology. Every public classmethod of
# Topology must appear here (see test_every_constructor_covered).
CONSTRUCTOR_BUILDERS = {
    "fully_connected": lambda m, seed, p: Topology.fully_connected(m),
    "ring": lambda m, seed, p: Topology.ring(m),
    "star": lambda m, seed, p: Topology.star(m),
    "expander": lambda m, seed, p: Topology.expander(
        m, np.random.default_rng(seed)
    ),
    "random_connected": lambda m, seed, p: Topology.random_connected(
        m, p, np.random.default_rng(seed)
    ),
    "from_edges": lambda m, seed, p: _random_edge_graph(m, seed, p),
}

# from_edges builds whatever it is given; everything else promises
# Assumption 1 (our from_edges *builder* happens to include a spanning
# path, but the constructor itself makes no such promise).
CONNECTIVITY_PROMISED = sorted(set(CONSTRUCTOR_BUILDERS) - {"from_edges"})

# constructor name -> (m, worker) -> inclusive degree bounds. The structured
# families pin each degree exactly; the expander overlays two Hamiltonian
# cycles (2..4 distinct neighbors); a connected random graph has >= 1.
DEGREE_BOUNDS = {
    "fully_connected": lambda m, worker: (m - 1, m - 1),
    "ring": lambda m, worker: (2, 2),
    "star": lambda m, worker: (m - 1, m - 1) if worker == 0 else (1, 1),
    "expander": lambda m, worker: (2, 4),
    "random_connected": lambda m, worker: (1, m - 1),
}

# make_topology kind -> the fewest workers it builds.
SMALLEST_WORKER_COUNT = {
    "full": 2, "ring": 3, "star": 2, "random": 2, "expander": 4,
}


def test_every_constructor_covered():
    """Adding a Topology constructor without invariant coverage fails here."""
    classmethods = {
        name for name, member in vars(Topology).items()
        if isinstance(member, classmethod) and not name.startswith("_")
    }
    missing = classmethods - set(CONSTRUCTOR_BUILDERS)
    assert not missing, (
        f"Topology constructors without a property-suite builder: "
        f"{sorted(missing)} -- add them to CONSTRUCTOR_BUILDERS"
    )


def test_every_topology_kind_covered():
    """Every registry kind must build through make_topology (and a new kind
    added to TOPOLOGY_KINDS without a factory branch fails here)."""
    for kind in TOPOLOGY_KINDS:
        topology = make_topology(kind, 8, edge_probability=0.3, seed=1)
        assert topology.num_workers == 8
        assert topology.is_connected()


class TestConstructorInvariants:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTOR_BUILDERS))
    @given(m=workers, seed=seeds, p=probabilities)
    @settings(max_examples=25, deadline=None)
    def test_symmetric_without_self_loops(self, name, m, seed, p):
        topology = CONSTRUCTOR_BUILDERS[name](m, seed, p)
        adjacency = topology.adjacency
        assert np.array_equal(adjacency, adjacency.T), f"{name} asymmetric"
        assert not np.any(np.diag(adjacency)), f"{name} has self-loops"
        assert not adjacency.flags.writeable  # accessor hands out a frozen view

    @pytest.mark.parametrize("name", CONNECTIVITY_PROMISED)
    @given(m=workers, seed=seeds, p=probabilities)
    @settings(max_examples=25, deadline=None)
    def test_connected_where_promised(self, name, m, seed, p):
        topology = CONSTRUCTOR_BUILDERS[name](m, seed, p)
        assert topology.is_connected(), f"{name} produced a disconnected graph"
        topology.require_connected()  # must not raise

    @pytest.mark.parametrize("name", sorted(CONSTRUCTOR_BUILDERS))
    @given(m=workers, seed=seeds, p=probabilities)
    @settings(max_examples=25, deadline=None)
    def test_neighbors_agree_with_adjacency(self, name, m, seed, p):
        topology = CONSTRUCTOR_BUILDERS[name](m, seed, p)
        for worker in range(topology.num_workers):
            np.testing.assert_array_equal(
                topology.neighbors(worker),
                np.flatnonzero(topology.adjacency[worker]),
            )
            assert topology.degree(worker) == len(topology.neighbors(worker))

    @pytest.mark.parametrize("name", sorted(DEGREE_BOUNDS))
    @given(m=workers, seed=seeds, p=probabilities)
    @settings(max_examples=25, deadline=None)
    def test_degrees_within_family_bounds(self, name, m, seed, p):
        topology = CONSTRUCTOR_BUILDERS[name](m, seed, p)
        for worker in range(m):
            low, high = DEGREE_BOUNDS[name](m, worker)
            assert low <= topology.degree(worker) <= high, (
                f"{name}: worker {worker} of {m} has degree "
                f"{topology.degree(worker)}, outside [{low}, {high}]"
            )


class TestSeedDeterminism:
    @given(m=workers, seed=seeds, p=probabilities)
    @settings(max_examples=40, deadline=None)
    def test_random_connected_is_a_pure_function_of_its_stream(self, m, seed, p):
        a = Topology.random_connected(m, p, np.random.default_rng(seed))
        b = Topology.random_connected(m, p, np.random.default_rng(seed))
        assert a == b

    @given(m=workers, seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_expander_is_a_pure_function_of_its_stream(self, m, seed):
        a = Topology.expander(m, np.random.default_rng(seed))
        b = Topology.expander(m, np.random.default_rng(seed))
        assert a == b

    @given(seed=seeds, p=probabilities)
    @settings(max_examples=40, deadline=None)
    def test_make_topology_deterministic_per_seed(self, seed, p):
        for kind in ("random", "expander"):
            a = make_topology(kind, 8, edge_probability=p, seed=seed)
            b = make_topology(kind, 8, edge_probability=p, seed=seed)
            assert a == b

    @given(m=workers, seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_zero_probability_random_graph_is_a_line(self, m, seed):
        """The Hamiltonian-path connectivity patch alone: exactly m-1 edges."""
        topology = Topology.random_connected(m, 0.0, np.random.default_rng(seed))
        assert len(topology.edges()) == m - 1
        assert topology.is_connected()


class TestRequestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            make_topology("mesh", 8, edge_probability=0.5)

    def test_too_few_workers_rejected(self):
        with pytest.raises(ValueError, match="ring topology needs at least 3"):
            make_topology("ring", 2, edge_probability=0.5)
        with pytest.raises(ValueError, match="expander topology needs at least 4"):
            make_topology("expander", 3, edge_probability=0.5)

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_smallest_worker_count(self, kind):
        """Each kind builds a connected graph at its floor and rejects one
        worker fewer with a ValueError, never a half-built graph."""
        smallest = SMALLEST_WORKER_COUNT[kind]
        topology = make_topology(kind, smallest, edge_probability=0.5)
        assert topology.num_workers == smallest
        assert topology.is_connected()
        with pytest.raises(ValueError, match="at least"):
            make_topology(kind, smallest - 1, edge_probability=0.5)

"""The ``degree_skew`` axis: per-node degree heterogeneity for random and
expander graphs.

Semantics pinned here:

- ``degree_skew=0`` is *bit-identical* to not passing the parameter at all
  (it consumes zero extra RNG draws, so existing seeds reproduce exactly);
- skewed graphs are deterministic per seed, connected, and actually
  heterogeneous (degree spread grows with the skew);
- the factory rejects the parameter where it cannot apply (structured
  kinds) and rejects negative values, through ``make_topology``;
  a sweep over such a scenario fails at spec construction, which builds it.
"""

import numpy as np
import pytest

from repro.experiments.scenarios import SCENARIO_FAMILIES
from repro.experiments.sweeps import ScenarioSpec, SweepSpec
from repro.graph.topology import (
    Topology,
    make_topology,
)


class TestSkewZeroIsInert:
    @pytest.mark.parametrize("kind", ("random", "expander"))
    def test_skew_zero_bit_identical_to_unskewed(self, kind):
        for seed in range(5):
            plain = make_topology(kind, 24, edge_probability=0.3, seed=seed)
            skewed = make_topology(
                kind, 24, edge_probability=0.3, seed=seed, degree_skew=0.0
            )
            assert plain == skewed
            assert plain.edge_signature() == skewed.edge_signature()

    def test_constructor_skew_zero_preserves_draw_sequence(self):
        """After building with skew=0 the generator state matches the
        unskewed build, so downstream draws are unperturbed."""
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        Topology.random_connected(16, 0.3, rng_a)
        Topology.random_connected(16, 0.3, rng_b, degree_skew=0.0)
        assert rng_a.integers(2**63) == rng_b.integers(2**63)


class TestSkewedGraphs:
    @pytest.mark.parametrize("kind", ("random", "expander"))
    def test_deterministic_connected(self, kind):
        for seed in range(4):
            first = make_topology(kind, 32, seed=seed, degree_skew=1.0)
            second = make_topology(kind, 32, seed=seed, degree_skew=1.0)
            assert first == second
            assert first.is_connected()

    @pytest.mark.parametrize("kind", ("random", "expander"))
    def test_skew_widens_degree_distribution(self, kind):
        def spread(topology):
            degrees = np.array([
                topology.degree(i) for i in range(topology.num_workers)
            ])
            return degrees.max() - degrees.min()

        m = 64
        flat = [
            spread(make_topology(kind, m, edge_probability=0.15, seed=s))
            for s in range(5)
        ]
        skewed = [
            spread(make_topology(
                kind, m, edge_probability=0.15, seed=s, degree_skew=1.5
            ))
            for s in range(5)
        ]
        assert np.mean(skewed) > np.mean(flat)

    @pytest.mark.parametrize("kind", ("random", "expander"))
    def test_valid_simple_graph(self, kind):
        topology = make_topology(kind, 40, seed=2, degree_skew=2.0)
        dense = topology.adjacency
        assert not np.any(np.diag(dense))
        np.testing.assert_array_equal(dense, dense.T)


class TestSpecTimeRejection:
    @pytest.mark.parametrize(
        "kind", ("full", "ring", "star", "torus", "hypercube", "small-world")
    )
    def test_rejected_for_structured_kinds(self, kind):
        workers = 16
        with pytest.raises(ValueError, match="degree_skew"):
            make_topology(kind, workers, seed=0, degree_skew=0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="degree_skew"):
            make_topology("random", 8, edge_probability=0.3, degree_skew=-0.1)

    def test_scenario_registry_rejects_at_spec_time(self):
        skewed_ring = ScenarioSpec(
            "heterogeneous", 8, params=(("topology", "ring"), ("degree_skew", 0.5))
        )
        with pytest.raises(ValueError, match="degree_skew"):
            SweepSpec(algorithms=("adpsgd",), seeds=(0,), scenarios=(skewed_ring,))

    def test_scenario_registry_builds_skewed_graph(self):
        family = SCENARIO_FAMILIES["heterogeneous"]
        scenario = family.build(16, seed=0, topology="random", degree_skew=1.0)
        assert scenario.name.endswith("-random-skew1")
        assert scenario.topology.is_connected()
        plain = family.build(16, seed=0, topology="random")
        assert scenario.topology != plain.topology

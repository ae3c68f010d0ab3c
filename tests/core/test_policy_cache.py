"""The signature-keyed policy-LP cache.

Two promises, both load-bearing for the dynamic-topology monitor loop:

1. **Hits are exact** -- a cache hit returns the identical PolicyResult the
   cold solve produced, and cold solves run on the *quantized* matrix, so
   cached and fresh paths can never diverge for equal keys.
2. **Keys discriminate** -- different graph signatures, materially
   different times, and different alphas/grids never share an entry, while
   sub-quantization measurement jitter maps onto one key.
"""

import numpy as np
import pytest

import repro.core.policy as policy_module
from repro.core.policy import (
    PolicyCache,
    PolicyGenerationError,
    generate_policy,
    quantize_times,
)
from repro.graph import Topology


@pytest.fixture
def times5(hetero_times5):
    return hetero_times5


def _indicator(m=5):
    return Topology.fully_connected(m).indicator()


class TestQuantizeTimes:
    def test_rounds_to_significant_digits(self):
        times = np.array([[0.0, 0.123456], [0.123456, 0.0]])
        quantized = quantize_times(times, digits=3)
        np.testing.assert_allclose(quantized[0, 1], 0.123)

    def test_sub_quantization_jitter_collapses(self):
        base = np.full((3, 3), 1.7)
        jittered = base * (1 + 1e-6)
        np.testing.assert_array_equal(
            quantize_times(base), quantize_times(jittered)
        )

    def test_material_changes_survive(self):
        base = np.full((3, 3), 1.0)
        slowed = base.copy()
        slowed[0, 1] = slowed[1, 0] = 2.0  # a paper-scale 2x slowdown
        assert not np.array_equal(quantize_times(base), quantize_times(slowed))

    def test_zeros_and_nans_pass_through(self):
        times = np.array([[0.0, np.nan], [1.234567, 0.0]])
        quantized = quantize_times(times)
        assert quantized[0, 0] == 0.0
        assert np.isnan(quantized[0, 1])

    def test_spans_magnitudes(self):
        values = np.array([[0.0, 1.23456e-4], [9.87654e3, 0.0]])
        quantized = quantize_times(values, digits=3)
        np.testing.assert_allclose(quantized[0, 1], 1.23e-4)
        np.testing.assert_allclose(quantized[1, 0], 9.88e3)

    def test_rejects_bad_digits(self):
        with pytest.raises(ValueError, match="digits"):
            quantize_times(np.ones((2, 2)), digits=0)


class TestPolicyCache:
    def test_hit_returns_identical_result(self, times5):
        cache = PolicyCache()
        first = cache.generate(times5, _indicator(), 0.1)
        second = cache.generate(times5, _indicator(), 0.1)
        assert cache.stats.cold_solves == 1
        assert cache.stats.hits == 1
        assert second is first  # the stored object, not a re-solve

    def test_cold_solve_matches_plain_generate_on_quantized(self, times5):
        cache = PolicyCache()
        cached = cache.generate(times5, _indicator(), 0.1)
        fresh = generate_policy(quantize_times(times5), _indicator(), 0.1)
        np.testing.assert_array_equal(cached.policy, fresh.policy)
        assert cached.rho == fresh.rho
        assert cached.t_bar == fresh.t_bar

    def test_jitter_below_quantization_hits(self, times5):
        cache = PolicyCache()
        cache.generate(times5, _indicator(), 0.1)
        jittered = times5 * (1 + 1e-7)
        cache.generate(jittered, _indicator(), 0.1)
        assert cache.stats.hits == 1

    def test_material_time_change_misses(self, times5):
        cache = PolicyCache()
        cache.generate(times5, _indicator(), 0.1)
        slowed = times5.copy()
        slowed[0, 1] = slowed[1, 0] = 40.0
        cache.generate(slowed, _indicator(), 0.1)
        assert cache.stats.cold_solves == 2

    def test_signature_discriminates_equal_shapes(self, times5):
        """Same induced matrix under different signatures never collides."""
        cache = PolicyCache()
        cache.generate(times5, _indicator(), 0.1, signature=b"subgraph-A")
        cache.generate(times5, _indicator(), 0.1, signature=b"subgraph-B")
        assert cache.stats.cold_solves == 2
        assert cache.stats.hits == 0

    def test_alpha_and_grid_in_key(self, times5):
        cache = PolicyCache()
        cache.generate(times5, _indicator(), 0.1)
        cache.generate(times5, _indicator(), 0.2)
        cache.generate(times5, _indicator(), 0.1, outer_rounds=4, inner_rounds=4)
        assert cache.stats.cold_solves == 3

    def test_infeasible_grids_cached(self, times5, monkeypatch):
        """A recurring hopeless grid fails from the cache, not a re-search."""
        monkeypatch.setattr(
            policy_module, "_lp_stack",
            lambda times, *a: (times, np.zeros(len(times), dtype=bool)),
        )
        cache = PolicyCache()
        for _ in range(2):
            with pytest.raises(PolicyGenerationError):
                cache.generate(times5, _indicator(), 0.1)
        assert cache.stats.cold_solves == 1
        assert cache.stats.infeasible_hits == 1

    def test_lru_eviction(self, times5):
        cache = PolicyCache(max_entries=2)
        for alpha in (0.1, 0.11, 0.12):
            cache.generate(times5, _indicator(), alpha)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.generate(times5, _indicator(), 0.1)  # evicted: cold again
        assert cache.stats.cold_solves == 4

    def test_cached_policy_is_frozen(self, times5):
        cache = PolicyCache()
        result = cache.generate(times5, _indicator(), 0.1)
        with pytest.raises(ValueError):
            result.policy[0, 0] = 0.5

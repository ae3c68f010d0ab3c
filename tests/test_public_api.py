"""The public API surface promised by the README stays importable and sane."""

import subprocess
import sys

import numpy as np
import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_importing_the_cli_imports_neither_scipy_nor_networkx(self):
        """Both are test-only oracles (the policy LP; the spanning tree and
        bridge searches). On the import path scipy cost every `repro`
        command ~0.3 s and ~30 MB, networkx ~0.1 s and ~20 MB."""
        probe = (
            "import sys, repro.cli; "
            "sys.exit(', '.join(m for m in ('scipy', 'networkx') if m in sys.modules) or 0)"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], timeout=60, capture_output=True, text=True
        )
        assert done.returncode == 0, f"import repro.cli pulled in: {done.stderr.strip()}"

    def test_trainer_names(self):
        names = repro.trainer_names()
        assert "netmax" in names
        assert len(names) == 8

    def test_readme_flow_runs(self):
        """The exact flow advertised in the README, at tiny scale."""
        scenario = repro.heterogeneous_scenario(num_workers=4, seed=42)
        workload = repro.make_workload(
            "mobilenet", "mnist", num_workers=4, batch_size=32,
            num_samples=512, seed=42,
        )
        config = repro.TrainerConfig(max_sim_time=15.0, eval_interval_s=5.0)
        results = repro.run_comparison(
            ["netmax", "adpsgd"], scenario, workload, config
        )
        speedups = repro.time_to_loss_speedups(results, reference="adpsgd")
        assert set(speedups) == {"netmax", "adpsgd"}
        for result in results.values():
            assert isinstance(result, repro.TrainingResult)
            summary = result.costs.summary()
            assert summary["epoch_time"] > 0

    def test_policy_generation_public_entry(self):
        topology = repro.Topology.fully_connected(4)
        times = np.full((4, 4), 1.0)
        times[0, 1] = times[1, 0] = 0.1
        np.fill_diagonal(times, 0.05)
        result = repro.generate_policy(times, topology.indicator(), 0.1)
        assert isinstance(result, repro.PolicyResult)
        uniform = repro.uniform_policy(topology.indicator())
        np.testing.assert_allclose(uniform.sum(axis=1), 1.0)

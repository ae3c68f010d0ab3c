"""Unit tests for scenario and workload builders."""

import numpy as np
import pytest

from repro.experiments.scenarios import (
    heterogeneous_scenario,
    homogeneous_scenario,
    make_quadratic_workload,
    make_workload,
    multi_cloud_scenario,
    scenario_names,
)
from repro.network.links import ClusterLinks, DynamicSlowdownLinks, StaticLinks

# The seven parameters every family accepts and ScenarioFamily.build applies.
SHARED_AXES = {
    "topology", "edge_probability", "edge_failures", "edge_downtime_s",
    "edge_horizon_s", "compression", "compression_param",
}


class TestScenarios:
    def test_heterogeneous_default_is_dynamic(self):
        scenario = heterogeneous_scenario(8)
        assert isinstance(scenario.links, DynamicSlowdownLinks)
        assert scenario.num_workers == 8
        assert scenario.topology.is_connected()

    def test_heterogeneous_static_option(self):
        scenario = heterogeneous_scenario(4, dynamic=False)
        # The implicit O(N)-state form; bit-identical to dense StaticLinks
        # over the cluster's matrices (pinned in the link suite).
        assert isinstance(scenario.links, ClusterLinks)
        assert not isinstance(scenario.links, StaticLinks)

    def test_heterogeneous_has_two_link_classes(self):
        scenario = heterogeneous_scenario(8, dynamic=False)
        matrix = scenario.links.bandwidth_matrix(0.0)
        off = ~np.eye(8, dtype=bool)
        assert len(np.unique(matrix[off])) == 2  # intra vs inter

    def test_homogeneous_uniform_links(self):
        scenario = homogeneous_scenario(6)
        matrix = scenario.links.bandwidth_matrix(0.0)
        off = ~np.eye(6, dtype=bool)
        assert len(np.unique(matrix[off])) == 1

    def test_multi_cloud_six_workers(self):
        scenario = multi_cloud_scenario()
        assert scenario.num_workers == 6


class TestMakeWorkload:
    def test_uniform_default(self):
        workload = make_workload(num_workers=4, num_samples=512, seed=0)
        assert workload.num_workers == 4
        assert len(set(workload.batch_sizes)) == 1
        assert workload.test_data is not None

    def test_segment_batch_scaling(self):
        workload = make_workload(
            num_workers=4, num_samples=512, partition="segments",
            segments_per_worker=[1, 1, 2, 1], batch_size=16, seed=0,
        )
        assert workload.batch_sizes == [16, 16, 32, 16]
        assert len(workload.shards[2]) > len(workload.shards[0])

    def test_drop_labels_partition(self):
        workload = make_workload(
            model="mobilenet", dataset="mnist", num_workers=2, num_samples=512,
            partition="drop-labels", lost_labels=[(0, 1), (2, 3)], seed=0,
        )
        assert not np.isin(workload.shards[0].labels, [0, 1]).any()

    def test_tasks_start_identical(self):
        workload = make_workload(num_workers=3, num_samples=512, seed=0)
        tasks = workload.make_tasks()
        for task in tasks[1:]:
            np.testing.assert_array_equal(
                task.model.get_params(), tasks[0].model.get_params()
            )

    def test_task_models_hold_init_params_on_their_own_buffers(
        self, monkeypatch
    ):
        """Each worker's model starts at ``init_params`` on a buffer of its
        own: no two workers, and no worker and the model it was cloned
        from, share parameter memory -- views included."""
        from repro.experiments import scenarios

        built = []

        def recording(*args, **kwargs):
            built.append(build_model(*args, **kwargs))
            return built[-1]

        build_model = scenarios.build_model
        monkeypatch.setattr(scenarios, "build_model", recording)
        workload = make_workload(model="mobilenet", dataset="mnist",
                                 num_workers=3, num_samples=256, seed=0)
        built.clear()
        tasks = workload.make_tasks()
        # Distinct objects: any template make_tasks cloned from, and the
        # workers' models.
        models = {id(model): model for model in built}
        models.update((id(task.model), task.model) for task in tasks)
        models = list(models.values())
        for task in tasks:
            np.testing.assert_array_equal(task.model.get_params(),
                                          workload.init_params)
            assert not np.shares_memory(task.model._params, workload.init_params)
            for view in (*task.model._weights, *task.model._biases):
                assert np.shares_memory(view, task.model._params)
        for i, a in enumerate(models):
            for b in models[i + 1:]:
                assert not np.shares_memory(a._params, b._params)
                for view in (*b._weights, *b._biases):
                    assert not np.shares_memory(a._params, view)

    def test_make_tasks_independent_copies(self):
        workload = make_workload(num_workers=2, num_samples=512, seed=0)
        a = workload.make_tasks()
        b = workload.make_tasks()
        a[0].model.set_params(np.zeros(a[0].model.dim))
        assert not np.allclose(b[0].model.get_params(), 0.0)

    def test_samplers_on_the_seed_0_i_streams(self):
        """One seeding rule: worker i of every run draws from the
        ``[seed, 0, i]`` stream, whichever algorithm trains it."""
        from repro.ml.data import BatchSampler

        workload = make_workload(num_workers=3, num_samples=512, seed=7)
        first, again = workload.make_tasks(), workload.make_tasks()
        for i, (shard, batch) in enumerate(zip(workload.shards, workload.batch_sizes)):
            reference = BatchSampler(shard, batch, np.random.default_rng([7, 0, i]))
            for _ in range(3):
                want = reference.next_batch()
                for tasks in (first, again):
                    got = tasks[i].sampler.next_batch()
                    np.testing.assert_array_equal(got[0], want[0])
                    np.testing.assert_array_equal(got[1], want[1])

    def test_segment_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            make_workload(
                num_workers=4, num_samples=512, partition="segments",
                segments_per_worker=[1, 2], seed=0,
            )

    def test_unknown_partition_rejected(self):
        with pytest.raises(ValueError, match="unknown partition"):
            make_workload(num_workers=2, num_samples=512, partition="zipf", seed=0)

    def test_profile_matches_model(self):
        workload = make_workload(model="vgg19", num_workers=2, num_samples=512, seed=0)
        assert workload.profile.name == "vgg19"
        assert workload.profile.param_count == 143_700_000


class TestQuadraticWorkload:
    def test_counts(self):
        tasks, x_star, profile = make_quadratic_workload(4, dim=3, seed=1)
        assert len(tasks) == 4
        assert x_star.shape == (3,)
        assert profile.name == "resnet18"
        assert tasks[0].sampler is None


class TestScenarioRegistry:
    def test_required_families_registered(self):
        from repro.experiments.scenarios import scenario_names
        names = set(scenario_names())
        # Rotating-slowdown, trace-driven, and churn families must all exist
        # (the dynamic-scenario subsystem's acceptance criterion).
        assert {"heterogeneous", "homogeneous", "heterogeneous-static",
                "multi-cloud", "trace-diurnal", "trace-random-walk",
                "trace-burst", "trace-file", "churn"} <= names

    def test_every_family_builds(self, tmp_path):
        import json
        from repro.experiments.scenarios import build_scenario, scenario_names

        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({
            "num_workers": 4, "latency": 0.001,
            "segments": [{"start": 0.0, "bandwidth": 1e8}],
        }))
        for name in scenario_names():
            workers = 6 if name == "multi-cloud" else 4
            params = {"path": str(trace)} if name == "trace-file" else {}
            scenario = build_scenario(name, num_workers=workers, seed=1, **params)
            assert scenario.num_workers == workers
            assert scenario.links.bandwidth(0, 1, 0.0) > 0
            assert (scenario.churn is not None) == (name == "churn")

    @pytest.mark.parametrize("name", scenario_names())
    def test_build_applies_the_shared_axes_and_names_the_scenario(
        self, name, tmp_path
    ):
        """ScenarioFamily.build is the one place a scenario gets its shared
        axes and its name: the builder sees only the family's own
        parameters, and the graph, edge schedule and op are the ones the
        axis constructors build by hand at the same seed."""
        import dataclasses
        import json
        from repro.experiments.scenarios import get_scenario_family
        from repro.graph.topology import DynamicTopology, EdgeSchedule, make_topology
        from repro.network.compression import make_compression_op

        family = get_scenario_family(name)
        workers = family.fixed_workers or 4
        params = {}
        if name == "trace-file":
            trace = tmp_path / "trace.json"
            trace.write_text(json.dumps({
                "num_workers": workers, "latency": 0.001,
                "segments": [{"start": 0.0, "bandwidth": 1e8}],
            }))
            params = {"path": str(trace)}
        received = []

        def recording(num_workers, seed, **kwargs):
            received.append(kwargs)
            return family.builder(num_workers, seed, **kwargs)

        seed = 3
        scenario = dataclasses.replace(family, builder=recording).build(
            workers, seed, topology="ring", edge_failures=1,
            compression="topk", **params,
        )
        assert scenario.name == f"{name}-{workers}w"
        (keywords,) = received
        assert not set(keywords) & SHARED_AXES
        assert set(keywords) == {parameter.name for parameter in family.params}
        ring = make_topology("ring", workers, seed=seed)
        schedule = EdgeSchedule.random(
            ring, horizon_s=600.0, num_failures=1, downtime_s=30.0, seed=seed
        )
        assert scenario.topology == DynamicTopology(ring, schedule)
        assert scenario.topology.schedule == schedule
        assert scenario.compression == make_compression_op("topk")

    def test_builds_are_deterministic_in_seed(self):
        from repro.experiments.scenarios import build_scenario
        a = build_scenario("trace-burst", 4, seed=3)
        b = build_scenario("trace-burst", 4, seed=3)
        c = build_scenario("trace-burst", 4, seed=4)
        for t in (0.0, 100.0, 500.0):
            np.testing.assert_array_equal(
                a.links.bandwidth_matrix(t), b.links.bandwidth_matrix(t)
            )
        assert any(
            not np.array_equal(a.links.bandwidth_matrix(t), c.links.bandwidth_matrix(t))
            for t in (0.0, 100.0, 500.0)
        )

    def test_param_coercion_and_validation(self):
        from repro.experiments.scenarios import build_scenario, get_scenario_family
        scenario = build_scenario("churn", 4, 0, num_departures="1",
                                  downtime_s="5", horizon_s="60", dynamic="false")
        assert len(scenario.churn) == 2
        family = get_scenario_family("churn")
        assert family.param("num_departures").coerce("3") == 3
        with pytest.raises(ValueError, match="boolean"):
            family.param("dynamic").coerce("maybe")
        with pytest.raises(ValueError, match="no parameter"):
            build_scenario("homogeneous", 4, 0, warp=1)

    def test_trace_file_family_csv_and_mismatch(self, tmp_path):
        from repro.experiments.scenarios import build_scenario
        csv = tmp_path / "trace.csv"
        csv.write_text(
            "time,src,dst,bandwidth\n"
            "0,0,1,1e8\n0,0,2,1e8\n0,1,2,1e8\n"
            "30,0,1,1e7\n"
        )
        scenario = build_scenario("trace-file", 3, 0, path=str(csv))
        assert scenario.links.bandwidth(0, 1, 31.0) == 1e7
        with pytest.raises(ValueError, match="describes 3 workers"):
            build_scenario("trace-file", 5, 0, path=str(csv))

    def test_every_family_accepts_the_topology_axis(self, tmp_path):
        """Each family builds on a non-complete graph and keeps its link
        model."""
        import json
        from repro.experiments.scenarios import (
            build_scenario, get_scenario_family, scenario_names,
        )
        from repro.graph.topology import make_topology

        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({
            "num_workers": 4, "latency": 0.001,
            "segments": [{"start": 0.0, "bandwidth": 1e8}],
        }))
        for name in scenario_names():
            family = get_scenario_family(name)
            assert "topology" in family.param_names(), (
                f"family {name!r} does not declare the shared topology axis"
            )
            workers = 6 if name == "multi-cloud" else 4
            params = {"path": str(trace)} if name == "trace-file" else {}
            scenario = build_scenario(
                name, num_workers=workers, seed=1, topology="ring", **params
            )
            assert scenario.topology == make_topology("ring", workers), name
            assert all(
                scenario.topology.degree(i) == 2 for i in range(workers)
            ), name
            assert scenario.links.num_workers == workers
            assert (scenario.churn is not None) == (name == "churn")

    def test_topology_axis_deterministic_and_seed_sensitive(self):
        from repro.experiments.scenarios import build_scenario
        a = build_scenario("heterogeneous", 8, seed=3, topology="random",
                          edge_probability=0.3)
        b = build_scenario("heterogeneous", 8, seed=3, topology="random",
                          edge_probability=0.3)
        c = build_scenario("heterogeneous", 8, seed=4, topology="random",
                          edge_probability=0.3)
        assert a.topology == b.topology
        assert a.topology != c.topology
        # The random graph draws from a dedicated stream: link dynamics are
        # untouched by the topology axis.
        full = build_scenario("heterogeneous", 8, seed=3)
        for t in (0.0, 100.0, 400.0):
            np.testing.assert_array_equal(
                a.links.bandwidth_matrix(t), full.links.bandwidth_matrix(t)
            )

    def test_unbuildable_topology_rejected_at_build(self):
        from repro.experiments.scenarios import build_scenario
        with pytest.raises(ValueError, match="ring topology needs at least 3"):
            build_scenario("heterogeneous", 2, seed=0, topology="ring")
        with pytest.raises(ValueError, match="unknown topology"):
            build_scenario("heterogeneous", 4, seed=0, topology="mesh")
        with pytest.raises(ValueError, match="expander topology needs at least 4"):
            build_scenario("heterogeneous", 3, seed=0, topology="expander")

    @pytest.mark.parametrize("params, message", [
        ({"topology": "torus"}, "unknown topology kind 'torus'"),
        ({"topology": "small-world"}, "unknown topology kind 'small-world'"),
        ({"topology": "hypercube"}, "unknown topology kind 'hypercube'"),
        ({"topology": "random", "degree_skew": 0.5}, "no parameter 'degree_skew'"),
        ({"topology": "ring", "edge_events": "0-1@2"}, "no parameter 'edge_events'"),
    ])
    def test_retired_spellings_rejected_at_build(self, params, message):
        """Graph kinds and axes that no figure uses are gone: spelling one
        is an error, never a silent fall-back to the complete graph."""
        from repro.experiments.scenarios import build_scenario
        with pytest.raises(ValueError, match=message):
            build_scenario("heterogeneous", 8, seed=0, **params)

    def test_every_family_accepts_the_edge_failure_axis(self, tmp_path):
        """Each family promotes its graph to a DynamicTopology over the
        requested graph when edge_failures > 0, and keeps its link model
        untouched."""
        import json
        from repro.experiments.scenarios import (
            build_scenario, get_scenario_family, scenario_names,
        )
        from repro.graph.topology import DynamicTopology, make_topology

        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({
            "num_workers": 4, "latency": 0.001,
            "segments": [{"start": 0.0, "bandwidth": 1e8}],
        }))
        for name in scenario_names():
            family = get_scenario_family(name)
            assert "edge_failures" in family.param_names(), (
                f"family {name!r} does not declare the shared edge axis"
            )
            workers = 6 if name == "multi-cloud" else 4
            params = {"path": str(trace)} if name == "trace-file" else {}
            scenario = build_scenario(
                name, num_workers=workers, seed=1, topology="ring",
                edge_failures=2, edge_horizon_s=100.0, edge_downtime_s=10.0,
                **params,
            )
            assert isinstance(scenario.topology, DynamicTopology)
            np.testing.assert_array_equal(  # the union graph is the ring
                scenario.topology.adjacency, make_topology("ring", workers).adjacency
            )
            assert len(scenario.topology.flip_times()) == 4  # 2 fail + 2 repair
            assert scenario.links.num_workers == workers

    def test_edge_failure_stream_is_isolated(self):
        """Adding edge failures perturbs neither the link dynamics nor the
        randomized graph draw, and is itself deterministic in the seed."""
        from repro.experiments.scenarios import build_scenario

        plain = build_scenario("heterogeneous", 8, seed=3, topology="random")
        dynamic = build_scenario(
            "heterogeneous", 8, seed=3, topology="random",
            edge_failures=2, edge_horizon_s=100.0, edge_downtime_s=10.0,
        )
        again = build_scenario(
            "heterogeneous", 8, seed=3, topology="random",
            edge_failures=2, edge_horizon_s=100.0, edge_downtime_s=10.0,
        )
        assert dynamic.topology == again.topology
        np.testing.assert_array_equal(
            dynamic.topology.adjacency, plain.topology.adjacency
        )
        for t in (0.0, 100.0, 400.0):
            np.testing.assert_array_equal(
                dynamic.links.bandwidth_matrix(t), plain.links.bandwidth_matrix(t)
            )

    def test_edge_failures_on_a_bridge_only_graph_rejected(self):
        from repro.experiments.scenarios import build_scenario
        with pytest.raises(ValueError, match="bridge"):
            build_scenario("heterogeneous", 4, seed=0, topology="star",
                           edge_failures=1)

    def test_churn_scenario_runs_end_to_end(self):
        from repro.algorithms.base import TrainerConfig
        from repro.experiments.harness import run_trainer
        from repro.experiments.scenarios import build_scenario

        scenario = build_scenario("churn", 4, 0, horizon_s=10.0,
                                  downtime_s=3.0, num_departures=1)
        workload = make_workload("mobilenet", "mnist", num_workers=4,
                                 batch_size=32, num_samples=256, seed=0)
        config = TrainerConfig(max_sim_time=10.0, eval_interval_s=5.0, seed=0)
        result = run_trainer("adpsgd", scenario, workload, config)
        assert len(result.extras["churn_events"]) == 2

    def test_every_family_accepts_the_compression_axis(self, tmp_path):
        """Each family accepts the shared compression axis and attaches the
        op; ``compression="none"`` attaches nothing and leaves the graph
        as it is."""
        import json
        from repro.experiments.scenarios import (
            build_scenario, get_scenario_family, scenario_names,
        )
        from repro.network.compression import TopK

        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({
            "num_workers": 4, "latency": 0.001,
            "segments": [{"start": 0.0, "bandwidth": 1e8}],
        }))
        for name in scenario_names():
            family = get_scenario_family(name)
            assert "compression" in family.param_names(), (
                f"family {name!r} does not declare the shared compression axis"
            )
            workers = 6 if name == "multi-cloud" else 4
            params = {"path": str(trace)} if name == "trace-file" else {}
            scenario = build_scenario(
                name, num_workers=workers, seed=1,
                compression="topk", compression_param=0.25, **params,
            )
            assert scenario.compression == TopK(k=0.25)
            plain = build_scenario(
                name, num_workers=workers, seed=1, compression="none", **params
            )
            assert plain.compression is None
            assert plain.topology == scenario.topology, name

    def test_compression_composes_with_the_topology_axis(self):
        from repro.experiments.scenarios import build_scenario
        from repro.graph.topology import make_topology
        from repro.network.compression import QSGD

        scenario = build_scenario(
            "heterogeneous", 4, 1,
            topology="ring", compression="qsgd", compression_param=4,
        )
        assert scenario.topology == make_topology("ring", 4)
        assert scenario.compression == QSGD(bits=4)
        assert all(scenario.topology.degree(i) == 2 for i in range(4))

    def test_bad_compression_rejected_at_spec_time(self):
        from repro.experiments.scenarios import build_scenario

        with pytest.raises(ValueError, match="unknown compression op"):
            build_scenario("heterogeneous", 4, 0, compression="gzip")
        with pytest.raises(ValueError, match="integral"):
            build_scenario("heterogeneous", 4, 0, compression="qsgd",
                           compression_param=7.5)
        with pytest.raises(ValueError, match="topk"):
            build_scenario("heterogeneous", 4, 0, compression="topk",
                           compression_param=1.5)

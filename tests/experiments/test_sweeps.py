"""Unit and property tests for the sweep engine."""

import numpy as np
import pytest

import hashlib
import json

from repro.algorithms.registry import trainer_names
from repro.experiments.executors import _in_turn_or_pool
from repro.experiments.sweeps import (
    CACHE_VERSION,
    ResultCache,
    RunSpec,
    ScenarioSpec,
    SweepSpec,
    WorkloadSpec,
    aggregate_sweep,
    run_sweep,
)

# The trailing cell_time_* columns are measured wall clock -- everything
# before them is deterministic, so backend/cache comparisons slice them off.
METRIC_COLUMNS = 9


def metric_rows(output):
    return [row[:METRIC_COLUMNS] for row in output.rows]


def tiny_spec(**overrides) -> SweepSpec:
    defaults = dict(
        algorithms=("adpsgd", "allreduce"),
        seeds=(0, 1),
        scenarios=(ScenarioSpec("heterogeneous", 4),),
        workload=WorkloadSpec(model="mobilenet", dataset="mnist",
                              batch_size=32, num_samples=256),
        run=RunSpec(max_sim_time=10.0, eval_interval_s=5.0),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def assert_results_identical(a, b):
    """Bit-identical histories and final parameters."""
    arrays_a, arrays_b = a.history.as_arrays(), b.history.as_arrays()
    for column in arrays_a:
        np.testing.assert_array_equal(arrays_a[column], arrays_b[column])
    np.testing.assert_array_equal(a.final_params, b.final_params)


class TestSpecs:
    def test_grid_expansion(self):
        spec = tiny_spec(
            scenarios=(ScenarioSpec("heterogeneous", 4),
                       ScenarioSpec("homogeneous", 4)),
        )
        cells = spec.cells()
        assert len(cells) == 2 * 2 * 2  # scenarios x algorithms x seeds
        assert cells == spec.cells()  # deterministic order

    def test_unknown_scenario_kind_rejected(self):
        with pytest.raises(ValueError, match="scenario kind"):
            ScenarioSpec("mesh", 4)

    def test_multi_cloud_worker_count_rejected_at_spec_time(self):
        """An unrunnable grid must fail at construction, not mid-sweep."""
        with pytest.raises(ValueError, match="6 workers"):
            ScenarioSpec("multi-cloud", 8)
        assert ScenarioSpec("multi-cloud", 6).build(0).num_workers == 6

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            tiny_spec(algorithms=())
        with pytest.raises(ValueError, match="seed"):
            tiny_spec(seeds=())

    def test_unknown_lr_spec_rejected(self):
        with pytest.raises(ValueError, match="lr spec"):
            RunSpec(lr=("cosine", 0.1)).build(0)

    def test_lr_specs_map_to_schedules(self):
        assert RunSpec(lr=("constant", 0.05)).build(0).lr_schedule.lr(10) == 0.05
        step = RunSpec(lr=("step", 0.1, 5.0)).build(0).lr_schedule
        assert step.lr(6.0) == pytest.approx(0.01)

    def test_cache_key_stable_and_sensitive(self):
        cell = tiny_spec().cells()[0]
        same = tiny_spec().cells()[0]
        assert cell.cache_key() == same.cache_key()
        other = tiny_spec(seeds=(7, 1)).cells()[0]
        assert cell.cache_key() != other.cache_key()
        other_run = tiny_spec(run=RunSpec(max_sim_time=11.0)).cells()[0]
        assert cell.cache_key() != other_run.cache_key()

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("algorithm", trainer_names())
    def test_a_spec_that_constructs_executes(self, algorithm, workers):
        """The dry-run contract: what ``--dry-run`` lists must run. (Prague
        used to reject its default ``group_size=3`` on a 2-worker cell only
        once the cell executed.)"""
        spec = tiny_spec(
            algorithms=(algorithm,),
            seeds=(0,),
            scenarios=(ScenarioSpec("heterogeneous-static", workers),),
            run=RunSpec(max_sim_time=2.0, eval_interval_s=1.0),
        )
        result = run_sweep(spec)
        assert result.cells_executed == 1
        (outcome,) = result.outcomes
        assert outcome.result.global_steps > 0

    @pytest.mark.parametrize("workload, message", [
        (dict(dataset="imagenet", num_samples=512), "1000 classes"),
        (dict(dataset="foo"), "unknown dataset 'foo'"),
        (dict(model="foo"), "unknown model 'foo'"),
        (dict(partition="shards"), "unknown partition"),
        (dict(partition="segments"), "needs segments_per_worker"),
        (dict(partition="drop-labels"), "needs lost_labels"),
    ])
    def test_a_workload_that_cannot_execute_does_not_construct(
        self, workload, message
    ):
        """The same contract from the workload side: these used to list
        their cells under ``--dry-run`` and die in ``make_workload``."""
        with pytest.raises(ValueError, match=message):
            WorkloadSpec(**workload)

    @pytest.mark.parametrize("workload, fits, message", [
        (dict(partition="segments", segments_per_worker=(1, 2)), 2,
         r"segments_per_worker length \(2\) must equal num_workers \(4\)"),
        (dict(partition="drop-labels", lost_labels=((0,), (1,), (2,))), 3,
         r"lost_labels length \(3\) must equal num_workers \(4\)"),
    ], ids=["segments", "drop-labels"])
    def test_per_worker_workload_tuples_checked_per_scenario(
        self, workload, fits, message
    ):
        """A per-worker tuple of the wrong length for a scenario's worker
        count used to construct, list under --dry-run and raise in the run."""
        spec = WorkloadSpec(num_samples=256, **workload)  # no worker count yet
        fitting = ScenarioSpec("heterogeneous", fits)
        tiny_spec(workload=spec, scenarios=(fitting,))
        with pytest.raises(ValueError, match=message):
            tiny_spec(workload=spec,
                      scenarios=(fitting, ScenarioSpec("heterogeneous", 4)))

    def test_syn_suffix_the_loader_tolerates_constructs_and_builds(self):
        workload = WorkloadSpec(dataset="MNIST-syn", num_samples=64).build(2, 0)
        assert workload.num_workers == 2


class TestParallelMap:
    def test_sequential_path(self):
        assert list(_in_turn_or_pool(str, [1, 2, 3], 0)) == ["1", "2", "3"]

    def test_parallel_path_preserves_order(self):
        assert list(_in_turn_or_pool(abs, [-3, 2, -1], 2)) == [3, 2, 1]

    def test_single_item_stays_in_process(self):
        calls = []
        assert list(_in_turn_or_pool(calls.append, [1], 4)) == [None]
        assert calls == [1]  # ran in this process, not a pool


class TestRunSweep:
    @pytest.fixture(scope="class")
    def sequential(self):
        return run_sweep(tiny_spec(), parallel=0)

    def test_all_cells_executed(self, sequential):
        assert len(sequential) == 4
        assert sequential.cells_executed == 4
        assert sequential.cells_from_cache == 0

    def test_parallel_equals_sequential(self, sequential):
        """The property the whole engine is built around."""
        parallel = run_sweep(tiny_spec(), parallel=2)
        for a, b in zip(sequential.outcomes, parallel.outcomes):
            assert a.cell == b.cell
            assert_results_identical(a.result, b.result)

    def test_rerun_is_deterministic(self, sequential):
        again = run_sweep(tiny_spec(), parallel=0)
        for a, b in zip(sequential.outcomes, again.outcomes):
            assert_results_identical(a.result, b.result)

    def test_cache_roundtrip(self, sequential, tmp_path):
        fresh = run_sweep(tiny_spec(), cache_dir=str(tmp_path))
        assert fresh.cells_from_cache == 0
        cached = run_sweep(tiny_spec(), cache_dir=str(tmp_path))
        assert cached.cells_from_cache == 4
        assert cached.cells_executed == 0
        for a, b in zip(fresh.outcomes, cached.outcomes):
            assert_results_identical(a.result, b.result)
        # Cached results equal a from-scratch sequential run too.
        for a, b in zip(sequential.outcomes, cached.outcomes):
            assert_results_identical(a.result, b.result)

    def test_force_reruns_cached_cells(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        run_sweep(spec, cache_dir=str(tmp_path))
        forced = run_sweep(spec, cache_dir=str(tmp_path), force=True)
        assert forced.cells_from_cache == 0

    def test_completed_cells_cached_despite_later_failure(self, tmp_path):
        """A crash partway through a sweep must not discard finished cells."""
        spec = tiny_spec(algorithms=("adpsgd", "nonexistent"), seeds=(0,))
        with pytest.raises(KeyError, match="unknown algorithm"):
            run_sweep(spec, cache_dir=str(tmp_path))
        # The adpsgd cell ran first (grid order) and must already be stored.
        assert len(ResultCache(str(tmp_path))) == 1
        recovered = run_sweep(tiny_spec(algorithms=("adpsgd",), seeds=(0,)),
                              cache_dir=str(tmp_path))
        assert recovered.cells_from_cache == 1

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = tiny_spec(algorithms=("adpsgd",), seeds=(0,))
        run_sweep(spec, cache_dir=str(tmp_path))
        key = spec.cells()[0].cache_key()
        cache = ResultCache(str(tmp_path))
        with open(cache.path(key), "wb") as handle:
            handle.write(b"not a pickle")
        recovered = run_sweep(spec, cache_dir=str(tmp_path))
        assert recovered.cells_from_cache == 0
        assert recovered.cells_executed == 1


class TestAggregate:
    def test_rows_per_algorithm_scenario(self):
        sweep = run_sweep(tiny_spec(), parallel=0)
        output = aggregate_sweep(sweep)
        assert {row[0] for row in output.rows} == {"adpsgd", "allreduce"}
        by_algorithm = output.row_dict()
        assert by_algorithm["adpsgd"][2] == 2  # seeds aggregated
        assert np.isfinite(by_algorithm["adpsgd"][3])  # loss mean

    def test_aggregation_independent_of_backend(self, tmp_path):
        seq = aggregate_sweep(run_sweep(tiny_spec(), parallel=0))
        par = aggregate_sweep(run_sweep(tiny_spec(), parallel=2))
        run_sweep(tiny_spec(), cache_dir=str(tmp_path))  # populate the cache
        cached = aggregate_sweep(run_sweep(tiny_spec(), cache_dir=str(tmp_path)))
        assert metric_rows(seq) == metric_rows(par)
        assert metric_rows(seq) == metric_rows(cached)


class TestVarianceBands:
    """Per-seed variance bands in the aggregation tables (seed spread)."""

    def test_every_metric_carries_a_std_column(self):
        output = aggregate_sweep(run_sweep(tiny_spec()))
        assert output.headers == [
            "algorithm", "scenario", "seeds",
            "final_loss_mean", "final_loss_std",
            "best_acc_mean", "best_acc_std",
            "epoch_time_mean", "epoch_time_std",
            "cell_time_mean", "cell_time_std",
        ]
        for row in output.rows:
            loss_std, acc_std, epoch_std = row[4], row[6], row[8]
            assert loss_std >= 0.0 and epoch_std >= 0.0
            assert np.isnan(acc_std) or acc_std >= 0.0

    def test_cell_time_telemetry_columns(self, tmp_path):
        """Executed groups report their measured wall clock; fully
        cache-served groups have no fresh measurement and render NaN."""
        fresh = aggregate_sweep(run_sweep(tiny_spec(), cache_dir=str(tmp_path)))
        for row in fresh.rows:
            assert row[9] > 0.0 and row[10] >= 0.0
        cached = aggregate_sweep(run_sweep(tiny_spec(), cache_dir=str(tmp_path)))
        for row in cached.rows:
            assert np.isnan(row[9]) and np.isnan(row[10])

    def test_std_measures_across_seed_spread(self):
        """Two seeds with different outcomes yield a positive sample std; a
        single seed measures no spread, so every std column is NaN (rendered
        band-free) rather than a misleading zero."""
        multi = aggregate_sweep(run_sweep(tiny_spec()))
        single = aggregate_sweep(run_sweep(tiny_spec(seeds=(0,))))
        multi_row = multi.row_dict()["adpsgd"]
        single_row = single.row_dict()["adpsgd"]
        assert multi_row[2] == 2 and single_row[2] == 1
        assert multi_row[4] > 0.0
        assert np.isnan(single_row[4]) and np.isnan(single_row[8])

    def test_std_uses_bessel_correction(self):
        """The seed spread is the ddof=1 sample estimator: for two seeds,
        std == |a - b| / sqrt(2), not the population |a - b| / 2."""
        result = run_sweep(tiny_spec())
        output = aggregate_sweep(result)
        losses = [
            cell.result.history.final_loss()
            for cell in result.outcomes
            if cell.cell.algorithm == "adpsgd"
        ]
        assert len(losses) == 2
        expected = abs(losses[0] - losses[1]) / np.sqrt(2.0)
        assert output.row_dict()["adpsgd"][4] == pytest.approx(expected, rel=1e-12)


class TestScenarioParams:
    """Per-cell scenario parameter grids (the dynamic-scenario subsystem)."""

    def test_cache_keys_differ_across_scenario_params(self):
        base = tiny_spec(scenarios=(ScenarioSpec("trace-diurnal", 4),)).cells()[0]
        tuned = tiny_spec(scenarios=(
            ScenarioSpec("trace-diurnal", 4, params=(("amplitude", 0.9),)),
        )).cells()[0]
        other = tiny_spec(scenarios=(
            ScenarioSpec("trace-diurnal", 4, params=(("amplitude", 0.2),)),
        )).cells()[0]
        assert len({base.cache_key(), tuned.cache_key(), other.cache_key()}) == 3

    def test_params_canonicalized_for_cache_stability(self):
        """String-spelled values and any key order hash identically."""
        a = ScenarioSpec("churn", 4, params=(("downtime_s", "10"), ("num_departures", 1)))
        b = ScenarioSpec("churn", 4, params=(("num_departures", "1"), ("downtime_s", 10.0)))
        assert a == b
        assert a.params == (("downtime_s", 10.0), ("num_departures", 1))
        cell_a = tiny_spec(algorithms=("adpsgd",), scenarios=(a,)).cells()[0]
        cell_b = tiny_spec(algorithms=("adpsgd",), scenarios=(b,)).cells()[0]
        assert cell_a.cache_key() == cell_b.cache_key()

    def test_unknown_param_fails_at_spec_time(self):
        with pytest.raises(ValueError, match="no parameter"):
            ScenarioSpec("trace-diurnal", 4, params=(("warp", 9),))

    def test_no_family_reads_a_file(self):
        """Every scenario builds from its spec and seed alone: no family takes
        a path, whose file's bytes a cache key would not cover."""
        from repro.experiments.scenarios import get_scenario_family, scenario_names

        for kind in scenario_names():
            assert "path" not in get_scenario_family(kind).param_names()
        with pytest.raises(ValueError, match="no parameter"):
            ScenarioSpec("trace-diurnal", 4, params=(("path", "trace.json"),))

    @pytest.mark.parametrize("value", [float("nan"), "nan", "inf", float("-inf")])
    def test_non_finite_float_params_fail_at_spec_time(self, value):
        """No builder means anything by NaN or infinity: a NaN rotation
        period used to build, and a NaN downtime or step to crash a cell
        after passing a dry run."""
        from repro.experiments.scenarios import get_scenario_family, scenario_names

        checked = 0
        for kind in scenario_names():
            family = get_scenario_family(kind)
            for name in family.param_names():
                if type(family.param(name).default) is not float:
                    continue
                with pytest.raises(ValueError, match=f"'{name}' must be finite"):
                    ScenarioSpec(kind, family.fixed_workers or 4,
                                 params=((name, value),))
                checked += 1
        assert checked >= 9 * 5  # every family carries five shared-axis floats

    def test_label_includes_params(self):
        spec = ScenarioSpec("trace-burst", 4, params=(("burst_probability", 0.5),))
        assert spec.label() == "trace-burst-4w[burst_probability=0.5]"

    def test_parallel_equals_sequential_with_trace_scenario(self):
        spec = tiny_spec(
            algorithms=("adpsgd",),
            scenarios=(ScenarioSpec("trace-random-walk", 4,
                                    params=(("duration_s", 10.0), ("step_s", 1.0))),),
        )
        seq = run_sweep(spec, parallel=0)
        par = run_sweep(spec, parallel=2)
        for a, b in zip(seq.outcomes, par.outcomes):
            assert_results_identical(a.result, b.result)

    def test_parallel_equals_sequential_with_churn_scenario(self):
        spec = tiny_spec(
            algorithms=("adpsgd", "netmax"),
            scenarios=(ScenarioSpec("churn", 4, params=(
                ("horizon_s", 10.0), ("downtime_s", 3.0), ("num_departures", 1),
            )),),
        )
        seq = run_sweep(spec, parallel=0)
        par = run_sweep(spec, parallel=2)
        for a, b in zip(seq.outcomes, par.outcomes):
            assert a.cell == b.cell
            assert_results_identical(a.result, b.result)

    def test_churn_scenario_cached_equals_fresh(self, tmp_path):
        spec = tiny_spec(
            algorithms=("adpsgd",),
            seeds=(0,),
            scenarios=(ScenarioSpec("churn", 4, params=(
                ("horizon_s", 10.0), ("downtime_s", 3.0), ("num_departures", 1),
            )),),
        )
        fresh = run_sweep(spec, cache_dir=str(tmp_path))
        cached = run_sweep(spec, cache_dir=str(tmp_path))
        assert cached.cells_from_cache == 1
        assert_results_identical(fresh.outcomes[0].result, cached.outcomes[0].result)

    def test_churn_scenario_accepts_every_registry_algorithm(self):
        """Every trainer runs churn (the synchronous ones round-based), so a
        churn grid constructs for the whole registry."""
        from repro.algorithms.registry import trainer_names

        spec = tiny_spec(
            algorithms=tuple(trainer_names()),
            scenarios=(ScenarioSpec("churn", 4),),
        )
        assert len(spec.cells()) == len(trainer_names()) * 2

    def test_topology_axis_cache_key_sensitivity(self):
        """Cells differing only in topology (or only in edge_probability)
        must never share a cache entry."""
        full = tiny_spec(scenarios=(ScenarioSpec("heterogeneous", 4),)).cells()[0]
        ring = tiny_spec(scenarios=(
            ScenarioSpec("heterogeneous", 4, params=(("topology", "ring"),)),
        )).cells()[0]
        star = tiny_spec(scenarios=(
            ScenarioSpec("heterogeneous", 4, params=(("topology", "star"),)),
        )).cells()[0]
        sparse = tiny_spec(scenarios=(
            ScenarioSpec("heterogeneous", 4,
                         params=(("topology", "random"), ("edge_probability", 0.1))),
        )).cells()[0]
        dense = tiny_spec(scenarios=(
            ScenarioSpec("heterogeneous", 4,
                         params=(("topology", "random"), ("edge_probability", 0.9))),
        )).cells()[0]
        keys = {c.cache_key() for c in (full, ring, star, sparse, dense)}
        assert len(keys) == 5

    def test_topology_default_canonicalized(self):
        """``topology=full`` (the schema default) builds the identical
        scenario and must hash, label, and compare like omitting it."""
        bare = ScenarioSpec("heterogeneous", 4)
        spelled = ScenarioSpec(
            "heterogeneous", 4,
            params=(("topology", "full"), ("edge_probability", 0.25)),
        )
        assert bare == spelled
        assert spelled.params == ()
        assert bare.label() == spelled.label()
        cell_a = tiny_spec(scenarios=(bare,)).cells()[0]
        cell_b = tiny_spec(scenarios=(spelled,)).cells()[0]
        assert cell_a.cache_key() == cell_b.cache_key()

    def test_edge_probability_inert_for_nonrandom_topologies(self):
        """edge_probability only parameterizes the randomized graph kinds;
        a ring cell spelled with any edge_probability builds the identical
        scenario and must hash, label, and compare like one without it."""
        bare = ScenarioSpec("heterogeneous", 4, params=(("topology", "ring"),))
        spelled = ScenarioSpec(
            "heterogeneous", 4,
            params=(("topology", "ring"), ("edge_probability", 0.9)),
        )
        assert bare == spelled
        assert spelled.params == (("topology", "ring"),)
        assert bare.label() == spelled.label()
        cell_a = tiny_spec(scenarios=(bare,)).cells()[0]
        cell_b = tiny_spec(scenarios=(spelled,)).cells()[0]
        assert cell_a.cache_key() == cell_b.cache_key()
        # ...while for a randomized kind the parameter is load-bearing.
        sparse = ScenarioSpec(
            "heterogeneous", 4,
            params=(("topology", "random"), ("edge_probability", 0.9)),
        )
        assert sparse.params == (
            ("edge_probability", 0.9), ("topology", "random"),
        )

    def test_unbuildable_topology_fails_at_spec_time(self):
        with pytest.raises(ValueError, match="expander"):
            tiny_spec(scenarios=(
                ScenarioSpec("heterogeneous", 3, params=(("topology", "expander"),)),
            ))
        with pytest.raises(ValueError, match="ring"):
            tiny_spec(scenarios=(
                ScenarioSpec("homogeneous", 2, params=(("topology", "ring"),)),
            ))
        with pytest.raises(ValueError, match="unknown topology"):
            tiny_spec(scenarios=(
                ScenarioSpec("heterogeneous", 4, params=(("topology", "mesh"),)),
            ))

    def test_cache_version_bump_invalidates_stale_entries(self):
        """Algorithm 3's LP went closed-form at CACHE_VERSION 6: a key
        computed under any older version must never collide with a current
        key, so stale v2..v5 cache entries can never be served as fresh
        results."""
        assert CACHE_VERSION == 6
        cell = tiny_spec().cells()[0]
        payload = cell.describe()
        assert payload["cache_version"] == CACHE_VERSION
        for stale_version in (1, 2, 3, 4, 5):
            stale_payload = dict(payload, cache_version=stale_version)
            stale_key = hashlib.sha256(
                json.dumps(stale_payload, sort_keys=True).encode()
            ).hexdigest()
            assert stale_key != cell.cache_key()

    def test_default_valued_override_hashes_like_omitted(self):
        """Spelling out a schema default builds the identical scenario and
        must therefore produce the identical spec, label, and cache key."""
        bare = ScenarioSpec("trace-diurnal", 4)
        spelled = ScenarioSpec("trace-diurnal", 4, params=(("amplitude", 0.6),))
        assert bare == spelled
        assert spelled.params == ()
        assert bare.label() == spelled.label()
        cell_a = tiny_spec(scenarios=(bare,)).cells()[0]
        cell_b = tiny_spec(scenarios=(spelled,)).cells()[0]
        assert cell_a.cache_key() == cell_b.cache_key()


class TestTopologySweeps:
    """The tentpole acceptance criteria, end to end through the engine."""

    def test_every_algorithm_completes_on_every_topology_family(self):
        """All registry algorithms x {full, ring, star, random} -- each cell
        must finish with finite numbers."""
        from repro.algorithms.registry import trainer_names

        spec = tiny_spec(
            algorithms=tuple(trainer_names()),
            seeds=(0,),
            scenarios=tuple(
                ScenarioSpec("heterogeneous", 4, params=(
                    () if kind == "full" else (("topology", kind),)
                ))
                for kind in ("full", "ring", "star", "random")
            ),
            run=RunSpec(max_sim_time=5.0, eval_interval_s=5.0),
        )
        sweep = run_sweep(spec)
        assert sweep.cells_executed == len(trainer_names()) * 4
        for outcome in sweep.outcomes:
            assert outcome.result.global_steps > 0, outcome.cell.label()
            assert np.isfinite(outcome.result.history.final_loss()), (
                outcome.cell.label()
            )

    def test_sync_churn_parallel_equals_sequential(self):
        spec = tiny_spec(
            algorithms=("allreduce", "prague", "ps-syn", "ps-asyn"),
            seeds=(0,),
            scenarios=(ScenarioSpec("churn", 4, params=(
                ("horizon_s", 10.0), ("downtime_s", 3.0), ("num_departures", 1),
            )),),
        )
        seq = run_sweep(spec, parallel=0)
        par = run_sweep(spec, parallel=2)
        for a, b in zip(seq.outcomes, par.outcomes):
            assert a.cell == b.cell
            assert_results_identical(a.result, b.result)

    def test_sync_churn_cached_equals_fresh(self, tmp_path):
        spec = tiny_spec(
            algorithms=("allreduce", "prague"),
            seeds=(0,),
            scenarios=(ScenarioSpec("churn", 4, params=(
                ("horizon_s", 10.0), ("downtime_s", 3.0), ("num_departures", 1),
            )),),
        )
        fresh = run_sweep(spec, cache_dir=str(tmp_path))
        cached = run_sweep(spec, cache_dir=str(tmp_path))
        assert cached.cells_from_cache == 2
        for a, b in zip(fresh.outcomes, cached.outcomes):
            assert_results_identical(a.result, b.result)

    def test_topology_sweep_parallel_equals_sequential(self):
        spec = tiny_spec(
            algorithms=("netmax",),
            seeds=(0,),
            scenarios=(
                ScenarioSpec("heterogeneous", 4, params=(("topology", "ring"),)),
                ScenarioSpec("heterogeneous", 4, params=(
                    ("topology", "random"), ("edge_probability", 0.4),
                )),
            ),
            run=RunSpec(max_sim_time=5.0, eval_interval_s=5.0),
        )
        seq = run_sweep(spec, parallel=0)
        par = run_sweep(spec, parallel=2)
        for a, b in zip(seq.outcomes, par.outcomes):
            assert_results_identical(a.result, b.result)


class TestCompressionSweeps:
    def test_compression_default_canonicalized(self):
        """``compression=none`` (the schema default) builds the identical
        scenario and must hash, label, and compare like omitting it --
        including dropping the then-inert ``compression_param``."""
        bare = ScenarioSpec("heterogeneous", 4)
        spelled = ScenarioSpec(
            "heterogeneous", 4,
            params=(("compression", "none"), ("compression_param", 0.1)),
        )
        assert bare == spelled
        assert spelled.params == ()
        assert bare.label() == spelled.label()
        cell_a = tiny_spec(scenarios=(bare,)).cells()[0]
        cell_b = tiny_spec(scenarios=(spelled,)).cells()[0]
        assert cell_a.cache_key() == cell_b.cache_key()

    def test_compression_param_load_bearing_for_lossy_ops(self):
        base = ScenarioSpec(
            "heterogeneous", 4, params=(("compression", "topk"),),
        )
        tuned = ScenarioSpec(
            "heterogeneous", 4,
            params=(("compression", "topk"), ("compression_param", 0.01)),
        )
        other = ScenarioSpec(
            "heterogeneous", 4,
            params=(("compression", "topk"), ("compression_param", 0.1)),
        )
        cells = [
            tiny_spec(scenarios=(s,)).cells()[0] for s in (base, tuned, other)
        ]
        assert len({c.cache_key() for c in cells}) == 3
        assert base.has_compression() and not ScenarioSpec(
            "heterogeneous", 4
        ).has_compression()

    def test_bad_compression_fails_at_spec_time(self):
        with pytest.raises(ValueError, match="unknown compression op"):
            tiny_spec(scenarios=(
                ScenarioSpec("heterogeneous", 4, params=(("compression", "gzip"),)),
            ))
        with pytest.raises(ValueError, match="integral"):
            tiny_spec(scenarios=(ScenarioSpec("heterogeneous", 4, params=(
                ("compression", "qsgd"), ("compression_param", 2.5),
            )),))

    def test_compressed_sweep_cached_equals_fresh(self, tmp_path):
        spec = tiny_spec(
            algorithms=("adpsgd",),
            seeds=(0,),
            scenarios=(ScenarioSpec("heterogeneous", 4, params=(
                ("compression", "topk"), ("compression_param", 0.1),
            )),),
        )
        fresh = run_sweep(spec, cache_dir=str(tmp_path))
        cached = run_sweep(spec, cache_dir=str(tmp_path))
        assert cached.cells_from_cache == 1
        for a, b in zip(fresh.outcomes, cached.outcomes):
            assert_results_identical(a.result, b.result)

    def test_compressed_sweep_parallel_equals_sequential(self):
        spec = tiny_spec(
            algorithms=("adpsgd", "netmax"),
            seeds=(0,),
            scenarios=(ScenarioSpec("heterogeneous", 4, params=(
                ("compression", "topk"), ("compression_param", 0.1),
            )),),
            run=RunSpec(max_sim_time=5.0, eval_interval_s=5.0),
        )
        seq = run_sweep(spec, parallel=0)
        par = run_sweep(spec, parallel=2)
        for a, b in zip(seq.outcomes, par.outcomes):
            assert_results_identical(a.result, b.result)

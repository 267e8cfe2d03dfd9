"""Experiments layer: ExperimentRunner and ResultTable.

The serial-vs-parallel equivalence tests are the load-bearing ones: the
runner's contract is that worker count never changes the records.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentRunner,
    ResultTable,
    ScenarioSpec,
    error_budget,
    forward_ber_trial,
)

#: A cheap operating point for sample-level trials (16 samples/chip).
FAST_SPEC = ScenarioSpec(name="fast-test", sample_rate_hz=32_000.0,
                         source_bandwidth_hz=20e3, distance_m=2.0)


def _counting_trial(spec: ScenarioSpec, rng) -> dict:
    """Module-level (hence picklable) synthetic trial."""
    value = float(rng.normal())
    return {"value": value, "errors": int(abs(value) > 1.0), "bits": 1}


class TestRunnerSerial:
    def test_runs_max_trials_without_stop_rule(self):
        table = ExperimentRunner(trial=_counting_trial, max_trials=9).run(
            ScenarioSpec(), seed=0
        )
        assert len(table) == 9
        assert table.column("trial") == list(range(9))
        assert table.metadata["trials_run"] == 9
        assert not table.metadata["stopped_early"]

    def test_reproducible_for_same_seed(self):
        runner = ExperimentRunner(trial=_counting_trial, max_trials=6)
        a = runner.run(ScenarioSpec(), seed=7)
        b = runner.run(ScenarioSpec(), seed=7)
        assert a.records == b.records

    def test_different_seeds_differ(self):
        runner = ExperimentRunner(trial=_counting_trial, max_trials=6)
        a = runner.run(ScenarioSpec(), seed=1)
        b = runner.run(ScenarioSpec(), seed=2)
        assert a.records != b.records

    def test_error_budget_stops_early(self):
        runner = ExperimentRunner(
            trial=_counting_trial, max_trials=200, min_trials=3,
            stop_when=error_budget(5),
        )
        table = runner.run(ScenarioSpec(), seed=0)
        assert 3 <= len(table) < 200
        assert sum(table.column("errors")) >= 5
        assert table.metadata["stopped_early"]

    def test_huge_trial_ceiling_is_cheap(self):
        # Seeds are spawned lazily, so a bench-style "no ceiling" value
        # must not allocate max_trials sequences up front.
        runner = ExperimentRunner(
            trial=_counting_trial, max_trials=10**9, min_trials=2,
            stop_when=error_budget(3),
        )
        table = runner.run(ScenarioSpec(), seed=0)
        assert 2 <= len(table) < 100

    def test_min_trials_floor_respected(self):
        runner = ExperimentRunner(
            trial=_counting_trial, max_trials=50, min_trials=10,
            stop_when=lambda records: True,
        )
        assert len(runner.run(ScenarioSpec(), seed=0)) == 10

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stop_rule_checks_each_prefix_once(self, workers):
        # A stop rule is pure, so a prefix checked after one trial (or
        # chunk) never needs a second look: N trials that never stop
        # cost N - min_trials + 1 calls, one per prefix length.
        seen = []

        def never(records):
            seen.append(len(records))
            return False

        runner = ExperimentRunner(
            trial=_counting_trial, max_trials=100, min_trials=5,
            stop_when=never, workers=workers, chunk_size=7,
        )
        assert len(runner.run(ScenarioSpec(), seed=0)) == 100
        assert seen == list(range(5, 101))

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentRunner(trial=_counting_trial, max_trials=0)
        with pytest.raises(ValueError):
            ExperimentRunner(trial=_counting_trial, max_trials=2,
                             min_trials=5)


class TestSerialParallelEquivalence:
    def test_synthetic_trial_bitwise_identical(self):
        kwargs = dict(trial=_counting_trial, max_trials=13, min_trials=2,
                      stop_when=error_budget(4))
        serial = ExperimentRunner(workers=1, **kwargs).run(
            ScenarioSpec(), seed=123
        )
        parallel = ExperimentRunner(workers=3, **kwargs).run(
            ScenarioSpec(), seed=123
        )
        assert serial.records == parallel.records
        assert parallel.metadata["workers"] == 3

    def test_link_trial_bitwise_identical(self):
        kwargs = dict(trial=forward_ber_trial, max_trials=4)
        serial = ExperimentRunner(workers=1, **kwargs).run(FAST_SPEC, seed=5)
        parallel = ExperimentRunner(workers=2, **kwargs).run(FAST_SPEC, seed=5)
        assert serial.records == parallel.records

    def test_chunking_does_not_change_records(self):
        kwargs = dict(trial=_counting_trial, max_trials=12, min_trials=2,
                      stop_when=error_budget(4))
        small = ExperimentRunner(workers=2, chunk_size=2, **kwargs).run(
            ScenarioSpec(), seed=9
        )
        large = ExperimentRunner(workers=2, chunk_size=12, **kwargs).run(
            ScenarioSpec(), seed=9
        )
        assert small.records == large.records


class TestRunnerSweep:
    def test_sweep_one_record_per_value(self):
        runner = ExperimentRunner(trial=_counting_trial, max_trials=5)
        table = runner.sweep(ScenarioSpec(), "distance_m", [0.5, 1.0, 2.0],
                             seed=0)
        assert table.column("distance_m") == [0.5, 1.0, 2.0]
        assert len(table) == 3
        assert table.metadata["parameter"] == "distance_m"

    def test_sweep_custom_aggregate(self):
        runner = ExperimentRunner(trial=_counting_trial, max_trials=4)
        table = runner.sweep(
            ScenarioSpec(), "distance_m", [1.0], seed=0,
            aggregate=lambda t: {"total_errors": int(t.sum("errors"))},
        )
        # n_trials is stamped by the sweep driver itself, so a custom
        # aggregate cannot hide the realised per-point trial count.
        assert table.columns == ["distance_m", "total_errors", "n_trials"]
        assert table.column("n_trials") == [4]

    def test_sweep_records_n_trials_per_point(self):
        runner = ExperimentRunner(trial=_counting_trial, max_trials=6)
        table = runner.sweep(ScenarioSpec(), "distance_m", [0.5, 1.0], seed=0)
        assert table.column("n_trials") == [6, 6]
        assert table.metadata["point_trials"] == [6, 6]

    def test_sweep_early_stop_visible_in_n_trials(self):
        # An error-budget stop that truncates one point must be visible
        # in that point's n_trials, not silently averaged away.
        runner = ExperimentRunner(
            trial=_counting_trial, max_trials=200, min_trials=2,
            stop_when=error_budget(3),
        )
        table = runner.sweep(ScenarioSpec(), "distance_m", [0.5, 1.0], seed=1)
        counts = table.column("n_trials")
        assert counts == table.metadata["point_trials"]
        for n in counts:
            assert 2 <= n < 200

    def test_sweep_aggregate_may_override_n_trials(self):
        # setdefault semantics: an aggregate that reports its own count
        # wins, but the metadata trail still records the realised one.
        runner = ExperimentRunner(trial=_counting_trial, max_trials=4)
        table = runner.sweep(
            ScenarioSpec(), "distance_m", [1.0], seed=0,
            aggregate=lambda t: {"n_trials": -1},
        )
        assert table.column("n_trials") == [-1]
        assert table.metadata["point_trials"] == [4]

    def test_sweep_reproducible(self):
        runner = ExperimentRunner(trial=_counting_trial, max_trials=4)
        a = runner.sweep(ScenarioSpec(), "distance_m", [0.5, 1.5], seed=3)
        b = runner.sweep(ScenarioSpec(), "distance_m", [0.5, 1.5], seed=3)
        assert a.records == b.records


class TestVectorizedBackend:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentRunner(trial=_counting_trial, backend="gpu")

    def test_resolved_backend_inference(self):
        assert ExperimentRunner(trial=_counting_trial).resolved_backend() \
            == "serial"
        assert ExperimentRunner(
            trial=_counting_trial, workers=4
        ).resolved_backend() == "parallel"
        assert ExperimentRunner(
            trial=_counting_trial, backend="vectorized"
        ).resolved_backend() == "vectorized"
        # An explicit backend wins over the worker-count inference.
        assert ExperimentRunner(
            trial=_counting_trial, workers=4, backend="serial"
        ).resolved_backend() == "serial"

    def test_unbatched_trial_raises_clear_error(self):
        runner = ExperimentRunner(
            trial=_counting_trial, max_trials=2, backend="vectorized"
        )
        with pytest.raises(ValueError, match="no batched implementation"):
            runner.run(ScenarioSpec(), seed=0)

    def test_vectorized_matches_serial_records(self):
        kwargs = dict(trial=forward_ber_trial, max_trials=4)
        serial = ExperimentRunner(**kwargs).run(FAST_SPEC, seed=5)
        vector = ExperimentRunner(backend="vectorized", **kwargs).run(
            FAST_SPEC, seed=5
        )
        assert serial.records == vector.records
        assert vector.metadata["backend"] == "vectorized"
        assert serial.metadata["backend"] == "serial"

    def test_vectorized_chunking_does_not_change_records(self):
        kwargs = dict(trial=forward_ber_trial, max_trials=5)
        small = ExperimentRunner(
            backend="vectorized", chunk_size=2, **kwargs
        ).run(FAST_SPEC, seed=9)
        large = ExperimentRunner(
            backend="vectorized", chunk_size=5, **kwargs
        ).run(FAST_SPEC, seed=9)
        assert small.records == large.records

    def test_vectorized_error_budget_stops_early(self):
        runner = ExperimentRunner(
            trial=forward_ber_trial, max_trials=50, min_trials=2,
            stop_when=error_budget(1), backend="vectorized", chunk_size=4,
        )
        serial = ExperimentRunner(
            trial=forward_ber_trial, max_trials=50, min_trials=2,
            stop_when=error_budget(1),
        )
        v = runner.run(FAST_SPEC, seed=11)
        s = serial.run(FAST_SPEC, seed=11)
        assert v.records == s.records


class TestStackCache:
    def test_stack_cache_is_lru_bounded(self):
        # Every cached stack pins sample-rate state, so a campaign grid
        # of many specs must not grow the cache past its cap.
        from repro.experiments import runner

        runner._STACK_CACHE.clear()
        specs = [
            FAST_SPEC.replace(distance_m=0.1 * (i + 1))
            for i in range(runner.MAX_CACHED_STACKS + 5)
        ]
        for spec in specs[:-1]:
            runner._stack_for(spec)
        assert len(runner._STACK_CACHE) == runner.MAX_CACHED_STACKS
        assert list(runner._STACK_CACHE) == specs[4:-1]
        # A hit returns the cached stack itself and refreshes it.
        stack = runner._STACK_CACHE[specs[4]]
        assert runner._stack_for(specs[4]) is stack
        assert list(runner._STACK_CACHE)[-1] == specs[4]
        # So the next eviction takes the untouched specs[5], not specs[4].
        runner._stack_for(specs[-1])
        assert specs[4] in runner._STACK_CACHE
        assert specs[5] not in runner._STACK_CACHE
        runner._STACK_CACHE.clear()


class TestForwardBerTrial:
    def test_record_shape(self):
        rng = np.random.default_rng(0)
        record = forward_ber_trial(FAST_SPEC, rng)
        assert set(record) == {"errors", "bits", "ber"}
        assert record["bits"] == 256
        assert 0.0 <= record["ber"] <= 1.0


class TestResultTable:
    def test_append_locks_columns(self):
        table = ResultTable()
        table.append({"a": 1, "b": 2})
        with pytest.raises(ValueError, match="extra"):
            table.append({"a": 1, "b": 2, "c": 3})
        with pytest.raises(ValueError, match="missing"):
            table.append({"a": 1})

    def test_column_and_stats(self):
        table = ResultTable()
        table.extend([{"x": 1.0}, {"x": 3.0}])
        assert table.column("x") == [1.0, 3.0]
        assert table.sum("x") == pytest.approx(4.0)
        assert table.mean("x") == pytest.approx(2.0)
        with pytest.raises(KeyError):
            table.column("y")

    def test_json_round_trip(self):
        table = ResultTable(metadata={"seed": 3})
        table.extend([{"x": 1, "y": "a"}, {"x": 2, "y": "b"}])
        clone = ResultTable.from_json(table.to_json())
        assert clone.columns == table.columns
        assert clone.records == table.records
        assert clone.metadata == table.metadata

    def test_csv(self):
        table = ResultTable()
        table.extend([{"x": 1, "y": 2.5}])
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "x,y"
        assert lines[1] == "1,2.5"

    def test_format_renders_table(self):
        table = ResultTable()
        table.extend([{"x": 1, "y": 2.0}])
        out = table.format()
        assert out.splitlines()[0].startswith("x")

    def test_from_json_preserves_metadata_and_column_order(self):
        # The store round-trips tables through this path, so column
        # *order* (not just the set) and nested metadata must survive.
        table = ResultTable(
            metadata={"scenario": {"name": "x", "distance_m": 0.5},
                      "seed": [1, 2], "note": "z"}
        )
        table.extend([{"zeta": 1, "alpha": 2.5, "mid": "m"}])
        clone = ResultTable.from_json(table.to_json())
        assert clone.columns == ["zeta", "alpha", "mid"]
        assert clone.metadata == table.metadata
        assert clone.to_json() == table.to_json()

    def test_from_json_empty_table(self):
        empty = ResultTable(metadata={"why": "nothing ran"})
        clone = ResultTable.from_json(empty.to_json())
        assert clone.columns == []
        assert clone.records == []
        assert clone.metadata == {"why": "nothing ran"}
        # columns declared but no records is also a legal table
        headed = ResultTable(columns=["a", "b"])
        clone = ResultTable.from_json(headed.to_json())
        assert clone.columns == ["a", "b"]
        assert len(clone) == 0

    def test_from_json_rejects_mismatched_records(self):
        doc = {
            "columns": ["a", "b"],
            "records": [{"a": 1, "b": 2}, {"a": 1, "c": 3}],
            "metadata": {},
        }
        import json as json_mod

        with pytest.raises(ValueError, match="extra"):
            ResultTable.from_json(json_mod.dumps(doc))
        doc["records"] = [{"a": 1}]
        with pytest.raises(ValueError, match="missing"):
            ResultTable.from_json(json_mod.dumps(doc))

    def test_from_json_missing_required_key(self):
        with pytest.raises(KeyError):
            ResultTable.from_json("{}")


class TestAggregates:
    def test_ber_aggregate_pools_counts_exactly(self):
        from repro.experiments import ber_aggregate

        table = ResultTable()
        table.extend([{"errors": 3, "bits": 100},
                      {"errors": 1, "bits": 100}])
        assert ber_aggregate(table) == {
            "errors": 4, "bits": 200, "rate": 0.02
        }
        assert ber_aggregate(ResultTable()) == {
            "errors": 0, "bits": 0, "rate": 0.0
        }

    def test_energy_aggregate_duty_cycle_economics(self):
        from repro.experiments import energy_aggregate

        table = ResultTable()
        table.extend([
            {"delivered": 1.0, "harvested_a_joule": 2e-9,
             "harvested_b_joule": 1e-9, "tx_energy_joule": 4e-8,
             "airtime_seconds": 0.2},
            {"delivered": 0.0, "harvested_a_joule": 4e-9,
             "harvested_b_joule": 3e-9, "tx_energy_joule": 4e-8,
             "airtime_seconds": 0.2},
        ])
        out = energy_aggregate(table)
        assert out["delivered"] == pytest.approx(0.5)
        # cost per delivered frame doubles at 50 % delivery
        assert out["energy_per_delivered_joule"] == pytest.approx(8e-8)
        assert out["harvest_rate_watt"] == pytest.approx(3e-9 / 0.2)
        assert out["sustainable_reports_per_hour"] == pytest.approx(
            (3e-9 / 0.2) / 8e-8 * 3600.0
        )

    def test_energy_aggregate_dead_link_sustains_nothing(self):
        from repro.experiments import energy_aggregate

        table = ResultTable()
        table.append({"delivered": 0.0, "harvested_a_joule": 1e-9,
                      "harvested_b_joule": 1e-9,
                      "tx_energy_joule": 4e-8, "airtime_seconds": 0.2})
        out = energy_aggregate(table)
        assert out["energy_per_delivered_joule"] == 0.0
        assert out["sustainable_reports_per_hour"] == 0.0
        assert energy_aggregate(ResultTable())[
            "sustainable_reports_per_hour"
        ] == 0.0

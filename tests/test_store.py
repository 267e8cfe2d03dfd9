"""The content-addressed result store: keys, disk layout, cached_run.

The load-bearing property is the prefix contract: for a fixed budget and
root seed, trial ``i``'s record is independent of how many trials run
and of the backend — so an exact hit, a truncation of a larger cached
run and a top-up of a smaller one must all serialise to the very bytes
a cold run would have stored.
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
from repro.store import (
    CODE_VERSION,
    ResultStore,
    cached_run,
    canonical_json,
    canonical_seed,
    result_key,
    trial_kind_of,
)

#: Cheap sample-level operating point (16 samples/chip).
FAST_SPEC = ScenarioSpec(name="fast-test", sample_rate_hz=32_000.0,
                         source_bandwidth_hz=20e3, distance_m=2.0)


def _synthetic_trial(spec: ScenarioSpec, rng) -> dict:
    """Module-level (picklable) trial: one normal draw per trial."""
    value = float(rng.normal())
    return {"value": value, "errors": int(abs(value) > 1.0), "bits": 1}


class TestCanonicalJson:
    def test_sorted_keys_and_no_whitespace(self):
        text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert text == '{"a":{"c":3,"d":2},"b":1}'

    def test_key_order_irrelevant(self):
        assert canonical_json({"x": 1, "y": 2}) == canonical_json(
            {"y": 2, "x": 1}
        )

    def test_floats_round_trip_exactly(self):
        import json

        doc = {"v": 0.1 + 0.2, "w": 1e-13, "x": 256000.0}
        text = canonical_json(doc)
        assert canonical_json(json.loads(text)) == text

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"v": float("nan")})


class TestResultKey:
    def test_stable_for_equal_inputs(self):
        a = result_key(FAST_SPEC, "forward-ber", 10, 0)
        b = result_key(FAST_SPEC.replace(), "forward-ber", 10, 0)
        assert a == b

    @pytest.mark.parametrize(
        "change",
        [
            dict(trial_kind="feedback-ber"),
            dict(n_trials=11),
            dict(seed=1),
            dict(code_version="0.0.0-test"),
        ],
    )
    def test_every_component_changes_the_digest(self, change):
        base = dict(trial_kind="forward-ber", n_trials=10, seed=0,
                    code_version=CODE_VERSION)
        a = result_key(FAST_SPEC, **base)
        b = result_key(FAST_SPEC, **{**base, **change})
        assert a.digest != b.digest

    def test_spec_changes_the_base(self):
        a = result_key(FAST_SPEC, "forward-ber", 10, 0)
        b = result_key(FAST_SPEC.replace(distance_m=1.0),
                       "forward-ber", 10, 0)
        assert a.base != b.base

    def test_budget_shares_the_base(self):
        a = result_key(FAST_SPEC, "forward-ber", 10, 0)
        b = result_key(FAST_SPEC, "forward-ber", 500, 0)
        assert a.base == b.base
        assert a.digest != b.digest
        assert a.at_budget(500) == b

    def test_trial_callable_resolves_to_kind_name(self):
        by_fn = result_key(FAST_SPEC, forward_ber_trial, 10, 0)
        by_name = result_key(FAST_SPEC, "forward-ber", 10, 0)
        assert by_fn == by_name

    def test_custom_trial_uses_dotted_path(self):
        kind = trial_kind_of(_synthetic_trial)
        assert kind == f"{__name__}._synthetic_trial"

    def test_seed_canonicalisation(self):
        assert canonical_seed(7) == 7
        assert canonical_seed(np.random.SeedSequence(7)) == 7
        with pytest.raises(TypeError):
            canonical_seed("7")
        assert (
            result_key(FAST_SPEC, "forward-ber", 5, 7).digest
            == result_key(
                FAST_SPEC, "forward-ber", 5, np.random.SeedSequence(7)
            ).digest
        )

    def test_seed_spawn_state_changes_the_key(self):
        # Same entropy, different trial streams: a spawned child and a
        # root that has already spawned children must not share the
        # pristine root's cache address (the runner would produce
        # different records for each, so a shared key would serve
        # wrong tables as exact hits).
        pristine = result_key(FAST_SPEC, "forward-ber", 5,
                              np.random.SeedSequence(7))
        child = result_key(FAST_SPEC, "forward-ber", 5,
                           np.random.SeedSequence(7).spawn(1)[0])
        used = np.random.SeedSequence(7)
        used.spawn(3)
        drained = result_key(FAST_SPEC, "forward-ber", 5, used)
        digests = {pristine.digest, child.digest, drained.digest}
        assert len(digests) == 3
        assert canonical_seed(np.random.SeedSequence(7).spawn(1)[0]) == {
            "entropy": 7, "spawn_key": [0], "children_spawned": 0
        }


def _put_same_key(args) -> int:
    """Pool-side writer: ``count`` puts of one fixed key under ``root``."""
    root, count = args
    store = ResultStore(root)
    key = result_key(FAST_SPEC, "forward-ber", 3, 0)
    table = ResultTable()
    table.extend({"trial": i, "v": float(i)} for i in range(3))
    for _ in range(count):
        store.put(key, table)
    return count


class TestResultStore:
    def _table(self, key, n):
        table = ResultTable(metadata={"n_trials": n})
        table.extend({"trial": i, "v": float(i)} for i in range(n))
        return table

    def test_get_put_has_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        assert not store.has(key)
        assert store.get(key) is None
        path = store.put(key, self._table(key, 3))
        assert path.is_file()
        assert store.has(key)
        loaded = store.get(key)
        assert loaded.records == self._table(key, 3).records
        assert loaded.metadata == {"n_trials": 3}

    def test_put_rejects_mislabelled_table(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 5, 0)
        with pytest.raises(ValueError, match="2 records"):
            store.put(key, self._table(key, 2))

    def test_stored_budgets_and_best_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 10, 0)
        assert store.stored_budgets(key) == []
        assert store.best_prefix(key) is None
        for n in (4, 20):
            store.put(key.at_budget(n), self._table(key, n))
        assert store.stored_budgets(key) == [4, 20]
        # exact budget wins
        store.put(key, self._table(key, 10))
        assert len(store.best_prefix(key)) == 10
        # smallest superset beats any subset
        assert len(store.best_prefix(key.at_budget(15))) == 20
        # largest prefix when nothing bigger exists
        assert len(store.best_prefix(key.at_budget(50))) == 20

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        assert ResultStore().root == tmp_path / "envstore"

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 2, 0)
        store.put(key, self._table(key, 2))
        assert not list(tmp_path.rglob("*.tmp"))

    def test_same_key_put_between_write_and_replace(self, tmp_path,
                                                    monkeypatch):
        # Two writers of one key (overlapping campaigns share keys):
        # the second put runs start to finish after the first has
        # written its temp file but before it replaces.  Each writer
        # must own its temp file, so both publish a whole table.
        import os

        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        table = self._table(key, 3)
        real_replace = os.replace
        staged = []

        def interleaved_replace(src, dst):
            staged.append(src)
            if len(staged) == 1:
                store.put(key, table)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", interleaved_replace)
        store.put(key, table)
        monkeypatch.undo()
        assert len(staged) == 2 and staged[0] != staged[1]
        assert store.get(key).records == table.records
        assert [p.name for p in store.path_for(key).parent.iterdir()] == [
            store.path_for(key).name
        ]

    @pytest.mark.slow
    def test_concurrent_writers_of_one_key(self, tmp_path):
        # Overlapping campaigns share keys by design: processes putting
        # the same key at once must neither crash nor leave temp files.
        import multiprocessing

        workers = 4
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=workers) as pool:
            pending = pool.map_async(
                _put_same_key, [(str(tmp_path), 100)] * workers
            )
            assert pending.get(timeout=120) == [100] * workers
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        assert store.get(key).column("v") == [0.0, 1.0, 2.0]
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_write_removes_its_temp_file(self, tmp_path,
                                                monkeypatch):
        import os

        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 2, 0)

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            store.put(key, self._table(key, 2))
        monkeypatch.undo()
        assert not list(tmp_path.rglob("*.tmp"))
        assert not store.has(key)


class TestCachedRun:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(trial=_synthetic_trial, max_trials=6)
        first = cached_run(store, runner, FAST_SPEC, seed=0)
        again = cached_run(store, runner, FAST_SPEC, seed=0)
        assert (first.outcome, first.trials_computed) == ("miss", 6)
        assert (again.outcome, again.trials_computed) == ("hit", 0)
        assert again.table.to_json() == first.table.to_json()

    def test_topup_matches_cold_run_bitwise(self, tmp_path):
        small = ExperimentRunner(trial=_synthetic_trial, max_trials=5)
        large = ExperimentRunner(trial=_synthetic_trial, max_trials=20)
        warm = ResultStore(tmp_path / "warm")
        cached_run(warm, small, FAST_SPEC, seed=3)
        topped = cached_run(warm, large, FAST_SPEC, seed=3)
        cold = cached_run(
            ResultStore(tmp_path / "cold"), large, FAST_SPEC, seed=3
        )
        assert topped.outcome == "topup"
        assert topped.trials_computed == 15
        assert topped.table.to_json() == cold.table.to_json()
        # and the stored bytes agree too
        assert (
            warm.path_for(topped.key).read_bytes()
            == ResultStore(tmp_path / "cold").path_for(cold.key).read_bytes()
        )

    def test_truncation_matches_cold_run_bitwise(self, tmp_path):
        small = ExperimentRunner(trial=_synthetic_trial, max_trials=4)
        large = ExperimentRunner(trial=_synthetic_trial, max_trials=16)
        warm = ResultStore(tmp_path / "warm")
        cached_run(warm, large, FAST_SPEC, seed=3)
        sliced = cached_run(warm, small, FAST_SPEC, seed=3)
        cold = cached_run(
            ResultStore(tmp_path / "cold"), small, FAST_SPEC, seed=3
        )
        assert (sliced.outcome, sliced.trials_computed) == ("truncated", 0)
        assert sliced.table.to_json() == cold.table.to_json()

    @pytest.mark.integration
    def test_vectorized_topup_matches_serial_cold(self, tmp_path):
        # Cross-backend: a vectorized top-up continues a serial prefix
        # and still reproduces a serial cold run byte for byte.
        store = ResultStore(tmp_path)
        cached_run(
            store,
            ExperimentRunner(trial=forward_ber_trial, max_trials=3),
            FAST_SPEC, seed=0,
        )
        topped = cached_run(
            store,
            ExperimentRunner(trial=forward_ber_trial, max_trials=8,
                             backend="vectorized"),
            FAST_SPEC, seed=0,
        )
        cold = ExperimentRunner(
            trial=forward_ber_trial, max_trials=8
        ).run(FAST_SPEC, seed=0)
        assert topped.outcome == "topup"
        assert topped.table.records == cold.records

    def test_adaptive_stopping_refused(self, tmp_path):
        runner = ExperimentRunner(
            trial=_synthetic_trial, max_trials=50,
            stop_when=error_budget(5),
        )
        with pytest.raises(ValueError, match="fixed trial budget"):
            cached_run(ResultStore(tmp_path), runner, FAST_SPEC)

    def test_metadata_is_canonical(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(trial=_synthetic_trial, max_trials=2)
        out = cached_run(store, runner, FAST_SPEC, seed=5)
        assert out.table.metadata == {
            "kind": f"{__name__}._synthetic_trial",
            "n_trials": 2,
            "scenario": FAST_SPEC.to_dict(),
            "seed": 5,
            "code_version": CODE_VERSION,
            "store_key": out.key.digest,
        }

    def test_code_version_partitions_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(trial=_synthetic_trial, max_trials=2)
        cached_run(store, runner, FAST_SPEC, seed=0)
        bumped = cached_run(
            store, runner, FAST_SPEC, seed=0, code_version="999.0.0"
        )
        assert bumped.outcome == "miss"


class TestRunnerStoreHooks:
    def test_run_with_store_round_trips(self, tmp_path):
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(trial=_synthetic_trial, max_trials=4)
        first = runner.run(FAST_SPEC, seed=0, store=store)
        again = runner.run(FAST_SPEC, seed=0, store=store)
        assert again.to_json() == first.to_json()
        assert store.has(result_key(FAST_SPEC, _synthetic_trial, 4, 0))

    def test_store_and_first_trial_exclusive(self, tmp_path):
        runner = ExperimentRunner(trial=_synthetic_trial, max_trials=4)
        with pytest.raises(ValueError, match="mutually exclusive"):
            runner.run(FAST_SPEC, store=ResultStore(tmp_path),
                       first_trial=2)

    def test_first_trial_resumes_the_seed_chunks(self):
        runner = ExperimentRunner(trial=_synthetic_trial, max_trials=10)
        full = runner.run(FAST_SPEC, seed=9)
        tail = runner.run(FAST_SPEC, seed=9, first_trial=6)
        assert tail.records == full.records[6:]
        assert tail.metadata["first_trial"] == 6
        assert tail.metadata["trials_run"] == 4
        assert not tail.metadata["stopped_early"]

    def test_first_trial_parallel_matches_serial(self):
        serial = ExperimentRunner(trial=_synthetic_trial, max_trials=9)
        parallel = ExperimentRunner(
            trial=_synthetic_trial, max_trials=9, workers=2
        )
        assert (
            parallel.run(FAST_SPEC, seed=4, first_trial=5).records
            == serial.run(FAST_SPEC, seed=4, first_trial=5).records
        )

    def test_first_trial_bounds_checked(self):
        runner = ExperimentRunner(trial=_synthetic_trial, max_trials=5)
        with pytest.raises(ValueError, match="first_trial"):
            runner.run(FAST_SPEC, first_trial=6)
        with pytest.raises(ValueError, match="first_trial"):
            runner.run(FAST_SPEC, first_trial=-1)

    def test_first_trial_incompatible_with_stop_rule(self):
        runner = ExperimentRunner(
            trial=_synthetic_trial, max_trials=50,
            stop_when=error_budget(3),
        )
        with pytest.raises(ValueError, match="stop_when"):
            runner.run(FAST_SPEC, first_trial=5)


class TestStoreCodec:
    """Binary payload format: round trips, migration, damage tolerance."""

    def _table(self, key, n):
        table = ResultTable(metadata={"n_trials": n})
        table.extend({"trial": i, "v": float(i)} for i in range(n))
        return table

    def test_payloads_are_binary_rpt(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        path = store.put(key, self._table(key, 3))
        assert path.suffix == ".rpt"
        blob = path.read_bytes()
        from repro.store.codec import MAGIC

        assert blob[:4] == MAGIC

    def test_nan_bearing_record_round_trips(self, tmp_path):
        import math

        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 2, 0)
        table = ResultTable(metadata={"worst_latency": math.inf})
        table.extend([
            {"trial": 0, "latency": 0.25, "tag": "ok"},
            {"trial": 1, "latency": math.nan, "tag": "timeout"},
        ])
        store.put(key, table)
        loaded = store.get(key)
        assert loaded.records[0] == table.records[0]
        assert math.isnan(loaded.records[1]["latency"])
        assert loaded.records[1]["tag"] == "timeout"
        assert loaded.metadata["worst_latency"] == math.inf

    def test_corrupt_payload_is_a_logged_miss(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        path = store.put(key, self._table(key, 3))
        path.write_bytes(b"RPT1 this is not a valid payload")
        with caplog.at_level("WARNING", logger="repro.store"):
            assert store.get(key) is None
        assert "treating as a miss" in caplog.text
        assert store.best_prefix(key) is None

    def test_truncated_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        path = store.put(key, self._table(key, 3))
        path.write_bytes(path.read_bytes()[:-7])
        assert store.get(key) is None

    def test_empty_payload_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        path = store.put(key, self._table(key, 3))
        path.write_bytes(b"")
        assert store.get(key) is None

    def test_wrong_codec_version_is_a_miss(self, tmp_path, caplog):
        import struct

        from repro.store.codec import MAGIC

        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        path = store.put(key, self._table(key, 3))
        blob = path.read_bytes()
        future = struct.pack("<4sH", MAGIC, 999) + blob[6:]
        path.write_bytes(future)
        with caplog.at_level("WARNING", logger="repro.store"):
            assert store.get(key) is None
        assert "codec version 999" in caplog.text

    def test_corruption_never_reaches_cached_run(self, tmp_path):
        # A damaged store entry costs a recompute, not a campaign crash.
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(trial=_synthetic_trial, max_trials=4)
        first = cached_run(store, runner, FAST_SPEC, seed=2)
        store.path_for(first.key).write_bytes(b"\x00garbage")
        again = cached_run(store, runner, FAST_SPEC, seed=2)
        assert again.outcome == "miss"
        assert again.table.to_json() == first.table.to_json()
        # the recompute repaired the entry
        assert cached_run(store, runner, FAST_SPEC, seed=2).outcome == "hit"

    def test_best_prefix_skips_damaged_budget(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 10, 0)
        for n in (4, 12):
            store.put(key.at_budget(n), self._table(key, n))
        store.path_for(key.at_budget(12)).write_bytes(b"broken")
        best = store.best_prefix(key)
        assert best is not None and len(best) == 4

    def test_legacy_json_entry_is_read_and_migrated(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        table = self._table(key, 3)
        legacy = store.legacy_path_for(key)
        legacy.parent.mkdir(parents=True, exist_ok=True)
        legacy.write_text(table.to_json() + "\n")
        assert store.has(key)
        assert store.stored_budgets(key) == [3]
        loaded = store.get(key)
        assert loaded == table
        # migrated to the binary format on first read
        assert store.path_for(key).is_file()
        assert store.get(key) == table

    def test_corrupt_legacy_json_is_a_miss(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        legacy = store.legacy_path_for(key)
        legacy.parent.mkdir(parents=True, exist_ok=True)
        legacy.write_text("{not json")
        with caplog.at_level("WARNING", logger="repro.store"):
            assert store.get(key) is None
        assert "treating as a miss" in caplog.text

    def test_budget_in_both_formats_counted_once(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 3, 0)
        table = self._table(key, 3)
        store.put(key, table)
        legacy = store.legacy_path_for(key)
        legacy.write_text(table.to_json() + "\n")
        assert store.stored_budgets(key) == [3]

    def test_encode_is_deterministic(self):
        from repro.store.codec import decode, encode

        key = result_key(FAST_SPEC, "forward-ber", 5, 0)
        table = self._table(key, 5)
        blob = encode(table)
        assert encode(decode(blob)) == blob

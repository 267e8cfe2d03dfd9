"""Observability woven through the stack: the do-no-harm contract.

The load-bearing acceptance property: **instrumentation never changes
the science**.  An instrumented run must produce bitwise-identical
records, store bytes and result keys to an uninstrumented one, on
every backend — spans read clocks and bump counters, nothing else.
The rest of the suite checks the instrumentation itself: the corrupt
store entry's counter + warning, engine-cache churn accounting, the
campaign trace reconciling exactly with ``CampaignRunResult``, and
the CLI's ``--trace``/``--metrics``/``obs report`` surface.
"""

import json
import logging

import pytest

from repro import obs
from repro.campaigns import CampaignRunner, CampaignSpec
from repro.experiments import (
    ExperimentRunner,
    ScenarioSpec,
    forward_ber_trial,
)
from repro.store import ResultStore, cached_run, result_key

#: Cheap sample-level operating point (16 samples/chip).
FAST_SPEC = ScenarioSpec(name="fast-obs-test", sample_rate_hz=32_000.0,
                         source_bandwidth_hz=20e3, distance_m=0.6)

TINY_CAMPAIGN = CampaignSpec(
    name="tiny-obs-test",
    description="two-point campaign for trace reconciliation",
    scenario="calibrated-default",
    overrides={"sample_rate_hz": 32_000.0, "source_bandwidth_hz": 20e3},
    grid={"distance_m": (0.4, 0.8)},
    kinds=("forward-ber",),
    n_trials=3,
    seed=11,
)


@pytest.fixture(autouse=True)
def _no_session_leak():
    obs.stop()
    yield
    obs.stop()


class TestBitwiseEquivalence:
    """Instrumented == uninstrumented, byte for byte."""

    @pytest.mark.parametrize("backend", ["serial", "parallel", "vectorized"])
    def test_runner_records_identical(self, backend, tmp_path):
        runner = ExperimentRunner(
            trial=forward_ber_trial, max_trials=4,
            workers=2 if backend == "parallel" else 1,
            backend=backend,
        )
        plain = runner.run(FAST_SPEC, seed=123).to_json()

        obs.start(trace_path=tmp_path / f"{backend}.jsonl")
        traced = runner.run(FAST_SPEC, seed=123).to_json()
        session = obs.stop()

        assert traced == plain
        # the run really was traced, not silently skipped
        assert session.metrics.snapshot()["counters"]["runner.trials"] == 4

    def test_store_bytes_and_keys_identical(self, tmp_path):
        runner = ExperimentRunner(trial=forward_ber_trial, max_trials=3)

        plain_store = ResultStore(tmp_path / "plain")
        plain_out = cached_run(plain_store, runner, FAST_SPEC, seed=7)

        obs.start(trace_path=tmp_path / "trace.jsonl")
        traced_store = ResultStore(tmp_path / "traced")
        traced_out = cached_run(traced_store, runner, FAST_SPEC, seed=7)
        obs.stop()

        assert traced_out.key == plain_out.key
        assert traced_out.outcome == plain_out.outcome == "miss"
        plain_bytes = plain_store.path_for(plain_out.key).read_bytes()
        traced_bytes = traced_store.path_for(traced_out.key).read_bytes()
        assert traced_bytes == plain_bytes

    def test_trace_never_reaches_record_bytes(self, tmp_path):
        # Same store, cold (traced) then warm (untraced): the warm hit
        # must return the very bytes the traced run stored.
        store = ResultStore(tmp_path / "store")
        runner = ExperimentRunner(trial=forward_ber_trial, max_trials=3)
        obs.start(trace_path=tmp_path / "t.jsonl")
        cold = cached_run(store, runner, FAST_SPEC, seed=9)
        obs.stop()
        warm = cached_run(store, runner, FAST_SPEC, seed=9)
        assert warm.outcome == "hit"
        assert warm.table.to_json() == cold.table.to_json()


class TestCorruptEntryPath:
    def test_corrupt_entry_counts_and_warns_with_key(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        runner = ExperimentRunner(trial=forward_ber_trial, max_trials=2)
        out = cached_run(store, runner, FAST_SPEC, seed=3)
        path = store.path_for(out.key)
        path.write_bytes(b"garbage, not a codec payload")

        session = obs.start()
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.get(out.key) is None
        obs.stop()

        counters = session.metrics.snapshot()["counters"]
        assert counters["store.corrupt"] == 1
        record = next(
            r for r in caplog.records if "treating as a miss" in r.message
        )
        assert out.key.digest in record.getMessage()
        assert record.name == "repro.store"

    def test_corrupt_legacy_entry_counts_too(self, tmp_path, caplog):
        store = ResultStore(tmp_path)
        key = result_key(FAST_SPEC, "forward-ber", 2, 0)
        legacy = store.legacy_path_for(key)
        legacy.parent.mkdir(parents=True)
        legacy.write_text("{not json")

        session = obs.start()
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.get(key) is None
        obs.stop()
        assert session.metrics.snapshot()["counters"]["store.corrupt"] == 1
        assert any(key.digest in r.getMessage() for r in caplog.records)


class TestEngineCacheChurn:
    """The runner's per-process stack cache (``_stack_for``): LRU order
    and its ``runner.stack.*`` counters."""

    @pytest.fixture
    def stack_cache(self, monkeypatch):
        """A fresh, empty cache whose builds are logged, not run."""
        from collections import OrderedDict

        from repro.experiments import runner

        monkeypatch.setattr(runner, "_STACK_CACHE", OrderedDict())
        built = []

        def build(spec):
            built.append(spec.distance_m)
            return object()

        monkeypatch.setattr(ScenarioSpec, "build", build)
        return runner, built

    def test_lru_eviction_order_and_metrics(self, monkeypatch, stack_cache):
        runner, built = stack_cache
        monkeypatch.setattr(runner, "MAX_CACHED_STACKS", 2)
        specs = [FAST_SPEC.replace(distance_m=d) for d in (0.4, 0.5, 0.6)]

        session = obs.start()
        # fill: build A, B; hit A (refreshes A over B)
        runner._stack_for(specs[0])
        runner._stack_for(specs[1])
        a = runner._stack_for(specs[0])
        # C overflows the cap: B is LRU and must be evicted, A survives
        runner._stack_for(specs[2])
        obs.stop()

        assert built == [0.4, 0.5, 0.6]
        assert list(runner._STACK_CACHE) == [specs[0], specs[2]]
        # A evicted? no: the refreshed A is still cached
        assert runner._stack_for(specs[0]) is a
        counters = session.metrics.snapshot()["counters"]
        assert counters["runner.stack.build"] == 3
        assert counters["runner.stack.hit"] == 1
        assert counters["runner.stack.evict"] == 1

    def test_rebuild_after_eviction_counts_as_build(self, monkeypatch,
                                                    stack_cache):
        runner, built = stack_cache
        monkeypatch.setattr(runner, "MAX_CACHED_STACKS", 1)
        specs = [FAST_SPEC.replace(distance_m=d) for d in (0.4, 0.5)]

        session = obs.start()
        for spec in (specs[0], specs[1], specs[0], specs[1]):
            runner._stack_for(spec)
        obs.stop()
        counters = session.metrics.snapshot()["counters"]
        # every call misses: the single slot thrashes
        assert built == [0.4, 0.5, 0.4, 0.5]
        assert counters["runner.stack.build"] == 4
        assert counters["runner.stack.evict"] == 3
        assert counters.get("runner.stack.hit", 0) == 0


class TestCampaignTraceReconciliation:
    def test_trace_report_matches_run_result(self, tmp_path):
        runner = CampaignRunner(store=ResultStore(tmp_path / "store"))

        obs.start(trace_path=tmp_path / "cold.jsonl")
        cold = runner.run(TINY_CAMPAIGN)
        obs.stop()
        cold_report = obs.report_from_trace(tmp_path / "cold.jsonl")
        c = cold_report.campaign
        assert c["units"] == len(cold.units)
        assert c["outcome_counts"] == cold.outcome_counts()
        assert c["trials_computed"] == cold.trials_computed
        assert c["store_hit_rate"] == 0.0

        obs.start(trace_path=tmp_path / "warm.jsonl")
        warm = runner.run(TINY_CAMPAIGN)
        obs.stop()
        w = obs.report_from_trace(tmp_path / "warm.jsonl").campaign
        assert warm.trials_computed == 0
        assert w["trials_computed"] == 0
        assert w["outcome_counts"] == {"hit": len(warm.units)}
        assert w["store_hit_rate"] == 1.0

    def test_span_tree_nests_units_under_run(self, tmp_path):
        runner = CampaignRunner(store=ResultStore(tmp_path / "store"))
        obs.start(trace_path=tmp_path / "t.jsonl")
        runner.run(TINY_CAMPAIGN)
        obs.stop()
        events = obs.load_trace(tmp_path / "t.jsonl")
        spans = [e for e in events if e["type"] == "span"]
        run = next(s for s in spans if s["name"] == "campaign.run")
        units = [s for s in spans if s["name"] == "campaign.unit"]
        assert all(u["parent"] == run["id"] for u in units)
        gets = [s for s in spans if s["name"] == "store.cached_run"]
        unit_ids = {u["id"] for u in units}
        assert all(g["parent"] in unit_ids for g in gets)


class TestCliObservability:
    def test_sweep_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "sweep.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main([
            "sweep", "--values", "0.5", "--trials", "2",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        assert f"wrote {metrics}" in out
        events = obs.load_trace(trace)
        assert any(e.get("name") == "runner.run" for e in events)
        snapshot = json.loads(metrics.read_text())
        assert snapshot["counters"]["runner.trials"] == 2

    def test_quiet_suppresses_write_notices(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "sweep.jsonl"
        code = main([
            "-q", "sweep", "--values", "0.5", "--trials", "2",
            "--trace", str(trace),
        ])
        assert code == 0
        assert "wrote" not in capsys.readouterr().out
        assert trace.is_file()

    def test_campaign_trace_flag_and_obs_report(self, tmp_path, capsys):
        from repro.cli import main

        store = tmp_path / "store"
        trace = tmp_path / "campaign.jsonl"
        for _ in range(2):  # cold, then warm over the same store
            code = main([
                "-q", "campaign", "run", "fig-ber-vs-distance",
                "--store", str(store), "--trials", "2",
                "--trace", str(trace),
            ])
            assert code == 0
        capsys.readouterr()
        code = main(["obs", "report", str(trace),
                     "--json", str(tmp_path / "report.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "store hit rate  100.0%" in out
        assert "trials computed 0" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["campaign"]["store_hit_rate"] == 1.0
        assert doc["campaign"]["trials_computed"] == 0

    def test_obs_report_does_not_clobber_its_input(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        main(["-q", "sweep", "--values", "0.5", "--trials", "2",
              "--trace", str(trace)])
        before = trace.read_bytes()
        assert main(["obs", "report", str(trace)]) == 0
        assert trace.read_bytes() == before

    def test_obs_report_bad_trace_is_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text("junk\n")
        with pytest.raises(SystemExit) as exc:
            main(["obs", "report", str(bad)])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_verbosity_flags_set_logger_levels(self, capsys):
        from repro.cli import main

        assert main(["-v", "scenario", "list"]) == 0
        assert logging.getLogger("repro").level == logging.INFO
        assert main(["-q", "scenario", "list"]) == 0
        assert logging.getLogger("repro").level == logging.ERROR
        assert main(["scenario", "list"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING
        capsys.readouterr()

"""Pooled MAC units: a campaign's missing mac trials in wide engine calls.

On the vectorized backend ``CampaignRunner`` runs the missing trials of
a pass's ``mac`` units as a few slotted-engine calls instead of one per
unit, then hands each unit its slice through its own ``cached_run``.
The contract pinned here: every stored ``.rpt`` is byte-equal to a
per-unit vectorized run, outcomes and journal are those of per-unit
runs, top-ups pool only the missing suffix, and a unit whose stored
prefix changed after the pool's scan still stores cold-run bytes.
"""

import json

import numpy as np
import pytest

from repro.campaigns import CampaignRunner, CampaignSpec, get_campaign
from repro.experiments import TRIAL_KINDS, ExperimentRunner
from repro.mac.batch import SlottedMacEngine
from repro.store import ResultStore
from repro.store.cache import canonical_table
from repro.store.codec import encode

#: A cheap MAC workload (4 links, 20 s horizon) for grid tests.
CHEAP_MAC = {
    "mac_num_links": 4,
    "mac_horizon_seconds": 20.0,
    "mac_arrival_rate_pps": 0.5,
}


def _per_unit_bytes(unit) -> bytes:
    """The stored bytes of ``unit`` run on its own, vectorized."""
    table = ExperimentRunner(
        trial=TRIAL_KINDS[unit.kind],
        max_trials=unit.n_trials,
        backend="vectorized",
    ).run(unit.spec, seed=unit.seed)
    return encode(canonical_table(unit.key(), unit.spec, table.records))


def _stored_bytes(store, unit) -> bytes:
    return store.path_for(unit.key()).read_bytes()


@pytest.fixture
def chunk_calls(monkeypatch):
    """Lane counts of every ``SlottedMacEngine.run_chunk`` call."""
    calls = []
    original = SlottedMacEngine.run_chunk

    def counted(self, children, *args, **kwargs):
        children = list(children)
        calls.append(len(children))
        return original(self, children, *args, **kwargs)

    monkeypatch.setattr(SlottedMacEngine, "run_chunk", counted)
    return calls


def _mac_grid(**changes) -> CampaignSpec:
    base = dict(
        name="mac-pool-test",
        scenario="calibrated-default",
        overrides=dict(CHEAP_MAC),
        grid={
            "mac_loss_probability": (0.05, 0.3),
            "mac_load_asymmetry": (1.0, 4.0),
        },
        kinds=("mac",),
        n_trials=3,
        seed=5,
    )
    base.update(changes)
    return CampaignSpec(**base)


class TestGoodputCampaign:
    def test_cold_pass_is_three_calls_and_per_unit_bytes(
        self, tmp_path, chunk_calls
    ):
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store=store, backend="vectorized")
        result = runner.run(get_campaign("fig-goodput-vs-load"), n_trials=3)
        # one call per policy arm, each pooling five loads x 3 trials
        assert chunk_calls == [15, 15, 15]
        assert result.outcome_counts() == {"miss": 15}
        assert result.trials_computed == 45
        for unit, outcome in result.units:
            assert outcome.trials_computed == 3
            assert _stored_bytes(store, unit) == _per_unit_bytes(unit)

    def test_warm_pass_makes_no_engine_call(self, tmp_path, chunk_calls):
        runner = CampaignRunner(
            store=ResultStore(tmp_path), backend="vectorized"
        )
        camp = get_campaign("fig-goodput-vs-load")
        runner.run(camp, n_trials=1)
        del chunk_calls[:]
        warm = runner.run(camp, n_trials=1)
        assert chunk_calls == []
        assert warm.outcome_counts() == {"hit": 15}


class TestMacGrid:
    def test_per_lane_loss_and_asymmetry_match_per_unit_bytes(
        self, tmp_path, chunk_calls
    ):
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store=store, backend="vectorized")
        result = runner.run(_mac_grid())
        # four units of one policy differ only in per-lane fields
        assert chunk_calls == [12]
        for unit, outcome in result.units:
            assert outcome.outcome == "miss"
            assert _stored_bytes(store, unit) == _per_unit_bytes(unit)

    def test_pool_lane_cap_splits_a_pass(
        self, tmp_path, chunk_calls, monkeypatch
    ):
        from repro.campaigns import runner as campaign_runner

        monkeypatch.setattr(campaign_runner, "POOL_LANES", 6)
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store=store, backend="vectorized")
        result = runner.run(_mac_grid())
        # two units (6 lanes) per pooled computation
        assert chunk_calls == [6, 6]
        assert result.outcome_counts() == {"miss": 4}
        for unit, _ in result.units:
            assert _stored_bytes(store, unit) == _per_unit_bytes(unit)

    def test_repeated_key_is_pooled_once(self, tmp_path, chunk_calls):
        # the grid's policy beats the arms', so both arms share keys
        camp = _mac_grid(
            grid={
                "mac_policy": ("fd-abort",),
                "mac_loss_probability": (0.05, 0.3),
            },
            arms={"a": {"mac_policy": "no-arq"}, "b": {}},
        )
        result = CampaignRunner(
            store=ResultStore(tmp_path), backend="vectorized"
        ).run(camp)
        assert chunk_calls == [6]
        assert [o.outcome for _, o in result.units] == [
            "miss", "hit", "miss", "hit"
        ]

    def test_topup_pools_only_the_missing_suffix(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import batch

        lanes = []
        original = batch.batch_mac_trials

        def recorded(spec, children):
            children = list(children)
            lanes.extend(child.spawn_key[-1] for child in children)
            return original(spec, children)

        monkeypatch.setattr(batch, "batch_mac_trials", recorded)
        camp = _mac_grid()
        store = ResultStore(tmp_path / "topped")
        runner = CampaignRunner(store=store, backend="vectorized")
        runner.run(camp, n_trials=2)
        del lanes[:]
        result = runner.run(camp, n_trials=5)
        assert result.outcome_counts() == {"topup": 4}
        assert all(o.trials_computed == 3 for _, o in result.units)
        # four units, each pooled from trial 2 on
        assert sorted(lanes) == sorted([2, 3, 4] * 4)

        cold_store = ResultStore(tmp_path / "cold")
        CampaignRunner(store=cold_store, backend="vectorized").run(
            camp, n_trials=5
        )
        for unit, _ in result.units:
            assert _stored_bytes(store, unit) == _stored_bytes(
                cold_store, unit
            )

    def test_prefix_changed_after_scan_runs_unit_alone(
        self, tmp_path, chunk_calls
    ):
        camp = _mac_grid(n_trials=4)
        units = camp.units()
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store=store, backend="vectorized")
        target = units[2]
        short = ExperimentRunner(
            trial=TRIAL_KINDS["mac"], max_trials=2, backend="vectorized"
        ).run(target.spec, seed=target.seed)
        del chunk_calls[:]

        def concurrent_writer(unit, outcome):
            # Another writer stores a 2-trial prefix of a unit the pool
            # already computed from trial 0.
            if unit == units[0]:
                key = target.key().at_budget(2)
                store.put(key, canonical_table(
                    key, target.spec, short.records
                ))

        result = runner.run(camp, progress=concurrent_writer)
        outcomes = {u.label(): o for u, o in result.units}
        assert outcomes[target.label()].outcome == "topup"
        assert outcomes[target.label()].trials_computed == 2
        # the pooled call, then the target's own 2-trial top-up
        assert chunk_calls == [16, 2]
        for unit in units:
            assert _stored_bytes(store, unit) == _per_unit_bytes(unit)


class TestMixedCampaign:
    def test_journal_order_and_outcomes_unchanged(self, tmp_path):
        camp = CampaignSpec(
            name="mixed-test",
            scenario="calibrated-default",
            overrides={
                "sample_rate_hz": 32_000.0,
                "source_bandwidth_hz": 20e3,
                **CHEAP_MAC,
            },
            grid={"mac_loss_probability": (0.1, 0.3)},
            kinds=("forward-ber", "mac"),
            arms={
                "hd-arq": {"mac_policy": "hd-arq"},
                "fd-abort": {"mac_policy": "fd-abort"},
            },
            n_trials=2,
            seed=3,
        )
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store=store, backend="vectorized")
        journal = []

        def read_journal(unit, outcome):
            path = runner.journal_path(camp)
            journal[:] = path.read_text().splitlines()

        result = runner.run(camp, progress=read_journal)
        units = camp.units()
        assert [u for u, _ in result.units] == units
        assert [o.outcome for _, o in result.units] == ["miss"] * 8
        lines = [json.loads(line) for line in journal]
        assert lines[0]["campaign"]["name"] == "mixed-test"
        assert [e["label"] for e in lines[1:]] == [u.label() for u in units]
        assert [e["outcome"] for e in lines[1:]] == ["miss"] * 8
        assert [e["trials_computed"] for e in lines[1:]] == [2] * 8
        for unit in units:
            assert _stored_bytes(store, unit) == _per_unit_bytes(unit)
        warm = runner.run(camp)
        assert warm.outcome_counts() == {"hit": 8}


class TestBatchEntryPoint:
    def test_lane_specs_match_single_spec_calls(self):
        from repro.experiments import batch, get_scenario

        base = get_scenario("calibrated-default").replace(**CHEAP_MAC)
        specs = [
            base.replace(mac_loss_probability=0.3),
            base.replace(mac_policy="no-arq"),
            base.replace(mac_load_asymmetry=3.0),
        ]
        # fresh children per call: a lane's generators spawn from its
        # child, so a used child would give other streams
        pooled = batch.batch_mac_trials(
            specs, np.random.SeedSequence(9).spawn(len(specs))
        )
        alone = [
            batch.batch_mac_trials(spec, [seed])[0]
            for spec, seed in zip(
                specs, np.random.SeedSequence(9).spawn(len(specs))
            )
        ]
        assert pooled == alone

    def test_engine_refuses_lanes_with_other_geometry(self):
        from repro.experiments import get_scenario

        base = get_scenario("calibrated-default").replace(**CHEAP_MAC)
        engine = SlottedMacEngine(base)
        seeds = np.random.SeedSequence(1).spawn(2)
        with pytest.raises(ValueError, match="may differ only"):
            engine.run_chunk(seeds, [base, base.replace(mac_num_links=3)])
        with pytest.raises(ValueError, match="lane specs"):
            engine.run_chunk(seeds, [base])

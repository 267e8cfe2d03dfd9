"""Adaptive trial allocation across campaign grid cells.

The scheduler's contract, pinned on a synthetic 3-cell Bernoulli grid
with deliberately unequal variance (p = 0.02 / 0.1 / 0.5):

* every cell converges to the target Wilson half-width;
* the high-variance cell gets the most trials, and the total spend is
  well below the fixed-``n_trials`` baseline reaching the same max
  width;
* an adaptive run interrupted by a budget cap and then resumed lands
  on bitwise-identical stored tables (the store replays the grant
  sequence as cache hits).
"""

import pytest

import repro.experiments as experiments
from repro.campaigns import (
    CampaignRunner,
    CampaignSpec,
    adaptive_run,
)
from repro.campaigns.adaptive import adaptive_checkpoint_path
from repro.store import ResultStore

#: Grid of success probabilities — variance p(1-p) spans 25×.
PROBS = (0.02, 0.1, 0.5)

#: Target Wilson half-width for the convergence tests.
PRECISION = 0.08


def _campaign(kind, floor=8):
    return CampaignSpec(
        name="adaptive-test",
        kinds=(kind,),
        grid={"mac_loss_probability": PROBS},
        n_trials=floor,
        seed=1,
    )


class TestAdaptiveConvergence:
    def test_converges_with_fewer_trials_than_fixed(
        self, tmp_path, bernoulli_kind
    ):
        runner = CampaignRunner(store=ResultStore(tmp_path))
        result = adaptive_run(
            runner, _campaign(bernoulli_kind), precision=PRECISION
        )
        assert result.converged
        assert result.max_width <= 2.0 * PRECISION
        budgets = [cell.n_trials for cell in result.cells]
        # budget follows variance: the p=0.5 cell outspends the p=0.02
        # cell
        assert budgets[-1] > budgets[0]
        # the fixed baseline reaching the same max width runs every
        # cell at the budget the worst cell needed
        fixed_total = len(budgets) * max(budgets)
        assert result.total_trials <= 0.7 * fixed_total
        assert result.trials_computed == result.total_trials

    def test_rerun_is_pure_cache_hits(self, tmp_path, bernoulli_kind):
        runner = CampaignRunner(store=ResultStore(tmp_path))
        camp = _campaign(bernoulli_kind)
        first = adaptive_run(runner, camp, precision=PRECISION)
        again = adaptive_run(runner, camp, precision=PRECISION)
        assert again.trials_computed == 0
        assert [c.n_trials for c in again.cells] == [
            c.n_trials for c in first.cells
        ]
        assert [c.width for c in again.cells] == [
            c.width for c in first.cells
        ]

    def test_resumed_run_bitwise_identical(self, tmp_path, bernoulli_kind):
        camp = _campaign(bernoulli_kind)
        straight = CampaignRunner(store=ResultStore(tmp_path / "a"))
        full = adaptive_run(straight, camp, precision=PRECISION)

        resumed = CampaignRunner(store=ResultStore(tmp_path / "b"))
        partial = adaptive_run(
            resumed, camp, precision=PRECISION, budget=40
        )
        assert not partial.converged  # the cap interrupted it
        after = adaptive_run(resumed, camp, precision=PRECISION)
        assert after.converged
        assert [c.n_trials for c in after.cells] == [
            c.n_trials for c in full.cells
        ]
        for a, b in zip(full.cells, after.cells):
            assert (
                straight.store.path_for(a.unit.key()).read_bytes()
                == resumed.store.path_for(b.unit.key()).read_bytes()
            )
        # the resume computed strictly less than the uninterrupted run
        assert after.trials_computed < full.trials_computed

    def test_budget_only_mode_grows_widest_cell(
        self, tmp_path, bernoulli_kind
    ):
        runner = CampaignRunner(store=ResultStore(tmp_path))
        result = adaptive_run(
            runner, _campaign(bernoulli_kind), budget=60
        )
        assert not result.converged
        assert result.total_trials <= 60
        budgets = [cell.n_trials for cell in result.cells]
        assert max(budgets) > min(budgets)

    def test_report_carries_granted_budgets(self, tmp_path, bernoulli_kind):
        runner = CampaignRunner(store=ResultStore(tmp_path))
        camp = _campaign(bernoulli_kind)
        result = adaptive_run(runner, camp, precision=PRECISION)
        tables = runner.report(camp, units=result.units())
        assert tables[bernoulli_kind].column("n_trials") == [
            cell.n_trials for cell in result.cells
        ]

    def test_checkpoint_written(self, tmp_path, bernoulli_kind):
        import json

        runner = CampaignRunner(store=ResultStore(tmp_path))
        camp = _campaign(bernoulli_kind)
        result = adaptive_run(runner, camp, precision=PRECISION)
        text = adaptive_checkpoint_path(runner, camp).read_text()
        state = json.loads(text)
        assert state["converged"] is True
        assert state["rounds"] == result.rounds
        assert [c["n_trials"] for c in state["cells"]] == [
            cell.n_trials for cell in result.cells
        ]
        # Canonical bytes: sorted keys, strict-finite (lint SER rules).
        assert text == (
            json.dumps(state, indent=2, sort_keys=True, allow_nan=False)
            + "\n"
        )


class TestAdaptiveValidation:
    def test_needs_precision_or_budget(self, tmp_path, bernoulli_kind):
        runner = CampaignRunner(store=ResultStore(tmp_path))
        with pytest.raises(ValueError, match="needs a target"):
            adaptive_run(runner, _campaign(bernoulli_kind))

    def test_rejects_unsupported_kind(
        self, tmp_path, monkeypatch, bernoulli_kind
    ):
        # a registered trial kind without a Wilson count extractor
        monkeypatch.setitem(
            experiments.TRIAL_KINDS, "no-counts",
            experiments.TRIAL_KINDS[bernoulli_kind],
        )
        runner = CampaignRunner(store=ResultStore(tmp_path))
        with pytest.raises(ValueError, match="no Wilson count extractor"):
            adaptive_run(
                runner, _campaign("no-counts"), precision=PRECISION
            )

    def test_rejects_nonpositive_targets(self, tmp_path, bernoulli_kind):
        runner = CampaignRunner(store=ResultStore(tmp_path))
        with pytest.raises(ValueError):
            adaptive_run(
                runner, _campaign(bernoulli_kind), precision=0.0
            )
        with pytest.raises(ValueError):
            adaptive_run(runner, _campaign(bernoulli_kind), budget=0)

    def test_max_rounds_bounds_unreachable_targets(
        self, tmp_path, bernoulli_kind
    ):
        runner = CampaignRunner(store=ResultStore(tmp_path))
        result = adaptive_run(
            runner,
            _campaign(bernoulli_kind, floor=1),
            precision=1e-6,
            max_rounds=3,
        )
        assert not result.converged
        assert result.rounds == 3


def _cheap_cli_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="tiny-adaptive-test",
        description="two-point adaptive smoke campaign",
        scenario="calibrated-default",
        overrides={
            # 16 samples/chip: cheap sample-level trials
            "sample_rate_hz": 32_000.0,
            "source_bandwidth_hz": 20e3,
        },
        grid={"distance_m": (0.4, 0.8)},
        kinds=("forward-ber",),
        n_trials=2,
        seed=11,
    )


class TestAdaptiveCli:
    def test_run_adaptive(self, tmp_path, capsys, monkeypatch):
        from repro.campaigns import builtin
        from repro.cli import main

        monkeypatch.setitem(
            builtin._CAMPAIGNS, "tiny-adaptive-test", _cheap_cli_campaign
        )
        code = main([
            "campaign", "run", "tiny-adaptive-test",
            "--store", str(tmp_path),
            "--adaptive", "--precision", "0.05",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "(adaptive)" in out
        assert "wilson_width" in out

    def test_precision_without_adaptive_rejected(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "campaign", "run", "fig-ber-vs-distance",
                "--store", str(tmp_path), "--precision", "0.05",
            ])
        assert "--adaptive" in capsys.readouterr().err

    def test_adaptive_without_target_rejected(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main([
                "campaign", "run", "fig-ber-vs-distance",
                "--store", str(tmp_path), "--adaptive",
            ])
        assert "precision" in capsys.readouterr().err


class TestAdaptiveMacPooling:
    def test_rounds_pool_mac_topups(self, tmp_path, monkeypatch):
        from repro.experiments import TRIAL_KINDS, ExperimentRunner
        from repro.mac.batch import SlottedMacEngine
        from repro.store.cache import canonical_table
        from repro.store.codec import encode

        calls = []
        original = SlottedMacEngine.run_chunk

        def counted(self, children, *args, **kwargs):
            children = list(children)
            calls.append(len(children))
            return original(self, children, *args, **kwargs)

        monkeypatch.setattr(SlottedMacEngine, "run_chunk", counted)
        store = ResultStore(tmp_path)
        runner = CampaignRunner(store=store, backend="vectorized")
        result = adaptive_run(
            runner, _campaign("mac", floor=2), precision=1e-6, max_rounds=3
        )
        # Every round doubles all three cells, whose lanes differ in
        # loss probability only: one pooled engine call per round.
        assert calls == [6, 6, 12]
        for cell in result.cells:
            unit = cell.unit
            assert unit.n_trials == 8
            cold = ExperimentRunner(
                trial=TRIAL_KINDS["mac"], max_trials=8, backend="vectorized"
            ).run(unit.spec, seed=unit.seed)
            assert store.path_for(unit.key()).read_bytes() == encode(
                canonical_table(unit.key(), unit.spec, cold.records)
            )

"""Tests for the calibration report and CLI."""

import pytest

from repro.ambient import OfdmLikeSource
from repro.analysis.calibration import CalibrationReport, calibration_report
from repro.fullduplex import FullDuplexConfig
from repro.phy import PhyConfig


def _stack():
    cfg = FullDuplexConfig()
    src = OfdmLikeSource(sample_rate_hz=cfg.phy.sample_rate_hz,
                         bandwidth_hz=200e3)
    return cfg, src


class TestCalibrationReport:
    def test_default_stack_is_healthy(self):
        cfg, src = _stack()
        report = calibration_report(cfg.phy, src, rng=0)
        assert isinstance(report, CalibrationReport)
        assert report.healthy()
        assert report.chip_mean_rel_std < 0.05
        assert report.modulation_depth > 0.05
        assert report.ambient_over_noise_db > 40

    def test_narrow_source_fails_health(self):
        # A slowly-fluctuating ambient (long coherence) wrecks the
        # per-chip stability the receiver depends on.
        from repro.ambient import FilteredNoiseSource

        phy = PhyConfig()
        bad = FilteredNoiseSource(sample_rate_hz=phy.sample_rate_hz,
                                  coherence_samples=512)
        report = calibration_report(phy, bad, rng=0)
        assert report.chip_mean_rel_std > 0.08
        assert not report.healthy()

    def test_distance_lowers_depth(self):
        cfg, src = _stack()
        near = calibration_report(cfg.phy, src, probe_distance_m=0.3, rng=0)
        far = calibration_report(cfg.phy, src, probe_distance_m=3.0, rng=0)
        assert far.modulation_depth < near.modulation_depth


class TestCli:
    def test_parser_covers_subcommands(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (["info"], ["ber"], ["mac"]):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_requires_subcommand(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info_runs(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "operating point" in out
        assert "healthy" in out

    def test_mac_runs_small(self, capsys):
        from repro.cli import main

        code = main(["mac", "--links", "2", "--horizon", "20",
                     "--load", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fd-abort" in out and "goodput_bps" in out
        assert "delivery_95ci" in out  # pooled Wilson bounds column

    def test_mac_policy_subset_and_trials(self, capsys):
        from repro.cli import main

        code = main(["mac", "--links", "2", "--horizon", "15",
                     "--load", "0.2", "--policy", "no-arq,fd-abort",
                     "--trials", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "no-arq" in out and "fd-abort" in out
        assert "hd-arq" not in out

    def test_mac_rejects_unknown_policy(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["mac", "--policy", "csma"])
        assert exc_info.value.code == 2
        assert "no-arq" in capsys.readouterr().err

    def test_mac_scenario_preset(self, capsys):
        from repro.cli import main

        code = main(["mac", "--scenario", "sparse-mac", "--horizon", "20",
                     "--policy", "no-arq", "--trials", "2"])
        assert code == 0
        assert "sparse-mac" in capsys.readouterr().out

    def test_sweep_mac_metric(self, capsys, tmp_path):
        import json

        from repro.cli import main

        out_json = tmp_path / "mac_sweep.json"
        code = main(["sweep", "--metric", "mac",
                     "--param", "mac_num_links", "--values", "2,3",
                     "--trials", "2", "--scenario", "sparse-mac",
                     "--json", str(out_json)])
        assert code == 0
        data = json.loads(out_json.read_text())
        assert [r["mac_num_links"] for r in data["records"]] == [2, 3]
        assert all("delivery_lo" in r and "delivery_hi" in r
                   for r in data["records"])

    def test_ber_runs_small(self, capsys):
        from repro.cli import main

        code = main(["--seed", "1", "ber", "--distance", "0.4",
                     "--trials", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "forward  BER" in out and "feedback BER" in out

    def test_scenario_list(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "calibrated-default" in out
        assert "rayleigh-mobile" in out

    def test_scenario_show_round_trips(self, capsys):
        import json

        from repro.cli import main
        from repro.experiments import ScenarioSpec, get_scenario

        assert main(["scenario", "show", "far-edge"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert ScenarioSpec.from_dict(data) == get_scenario("far-edge")

    def test_info_accepts_scenario_flag(self, capsys):
        from repro.cli import main

        assert main(["info", "--scenario", "tone-source"]) == 0
        assert "tone-source" in capsys.readouterr().out

    def test_sweep_runs_and_writes_json(self, capsys, tmp_path):
        import json

        from repro.cli import main

        out_json = tmp_path / "sweep.json"
        code = main(["sweep", "--param", "distance_m",
                     "--values", "0.4,0.6", "--trials", "2",
                     "--json", str(out_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "distance_m" in out
        data = json.loads(out_json.read_text())
        assert [r["distance_m"] for r in data["records"]] == [0.4, 0.6]

    def test_sweep_rejects_unknown_parameter(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--param", "warp_factor", "--values", "1,2"])

    def test_sweep_parses_bool_parameters(self):
        from repro.cli import _parse_sweep_values

        assert _parse_sweep_values(
            "self_compensation", "true,false"
        ) == [True, False]
        with pytest.raises(SystemExit):
            _parse_sweep_values("self_compensation", "yes")

    def test_unknown_scenario_is_clean_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["info", "--scenario", "no-such"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "calibrated-default" in err

    def test_bad_knob_value_is_clean_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", "--param", "asymmetry_ratio", "--values", "7"])
        assert exc_info.value.code == 2
        assert "even integer" in capsys.readouterr().err

    def test_python_dash_m_repro_entrypoint(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "scenario", "list"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "calibrated-default" in result.stdout

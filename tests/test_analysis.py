"""Analysis-layer tests: theory, measurement harnesses, reports."""

import math

import numpy as np
import pytest

from repro.analysis.ber import BerEstimate, measure_forward_ber
from repro.analysis.reporting import format_table
from repro.analysis.theory import (
    aloha_success_probability,
    aloha_throughput,
    expected_abort_savings_fraction,
    ook_envelope_ber,
    q_function,
    wilson_interval,
)
from repro.analysis.throughput import (
    expected_attempts,
    expected_energy_per_delivered_fd,
    expected_energy_per_delivered_hd,
    goodput_ratio_fd_over_hd,
)
from repro.hardware.energy import EnergyModel


class TestTheory:
    def test_q_function_known_values(self):
        assert q_function(0.0) == pytest.approx(0.5)
        assert q_function(1.6449) == pytest.approx(0.05, abs=1e-3)
        assert q_function(-1.0) + q_function(1.0) == pytest.approx(1.0)

    def test_ook_ber_decreases_with_separation(self):
        bers = [ook_envelope_ber(s, 1.0) for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(bers, bers[1:]))

    def test_ook_ber_half_at_zero_separation(self):
        assert ook_envelope_ber(0.0, 1.0) == pytest.approx(0.5)

    def test_aloha_peak(self):
        assert aloha_throughput(0.5) == pytest.approx(1 / (2 * math.e))
        assert aloha_throughput(0.5) > aloha_throughput(0.2)
        assert aloha_throughput(0.5) > aloha_throughput(1.0)

    def test_aloha_success_probability(self):
        assert aloha_success_probability(0.0) == pytest.approx(1.0)
        assert aloha_success_probability(1.0) == pytest.approx(math.exp(-2))

    def test_wilson_contains_point_estimate(self):
        lo, hi = wilson_interval(10, 100)
        assert lo < 0.1 < hi

    def test_wilson_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and 0 < hi < 0.01

    def test_wilson_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    def test_abort_savings_bounds(self):
        s = expected_abort_savings_fraction(64, 8, 1024)
        assert 0.0 < s < 1.0

    def test_abort_savings_grow_with_packet_size(self):
        small = expected_abort_savings_fraction(64, 8, 256)
        large = expected_abort_savings_fraction(64, 8, 4096)
        assert large > small

    def test_abort_savings_shrink_with_ratio(self):
        fine = expected_abort_savings_fraction(16, 8, 1024)
        coarse = expected_abort_savings_fraction(256, 8, 1024)
        assert fine > coarse


class TestThroughputEconomics:
    def test_expected_attempts(self):
        assert expected_attempts(0.0) == pytest.approx(1.0)
        assert expected_attempts(0.5) == pytest.approx(2.0)
        assert expected_attempts(1.0) == float("inf")

    def test_fd_cheaper_than_hd_under_loss(self):
        energy = EnergyModel()
        for p in (0.1, 0.3, 0.5):
            hd = expected_energy_per_delivered_hd(p, 557, 45, energy)
            fd = expected_energy_per_delivered_fd(p, 557, 64, 8, energy)
            assert fd < hd, p

    def test_fd_hd_converge_at_zero_loss(self):
        energy = EnergyModel()
        hd = expected_energy_per_delivered_hd(0.0, 557, 45, energy)
        fd = expected_energy_per_delivered_fd(0.0, 557, 64, 8, energy)
        assert fd == pytest.approx(hd, rel=0.15)

    def test_goodput_ratio_grows_with_loss(self):
        # At zero loss the two protocols are near-parity (FD's trailing
        # feedback slot vs HD's ACK exchange); FD pulls ahead as loss
        # grows and aborts start saving airtime.
        ratios = [
            goodput_ratio_fd_over_hd(p, 557, 45, 8, 64, 8)
            for p in (0.0, 0.2, 0.4)
        ]
        assert ratios[0] == pytest.approx(1.0, abs=0.05)
        assert ratios[1] > 1.0
        assert ratios[2] > ratios[1] > ratios[0]


class TestBerEstimate:
    def test_rate(self):
        est = BerEstimate(errors=5, trials=100)
        assert est.rate == pytest.approx(0.05)

    def test_empty(self):
        assert BerEstimate(0, 0).rate == 0.0

    def test_zero_trials_confidence_is_vacuous(self):
        # Regression: an empty estimate must advertise total uncertainty
        # — wilson_interval(0, 0) is the full unit interval, never a
        # division error or a confident-looking (0, 0).
        assert BerEstimate(0, 0).confidence == (0.0, 1.0)
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_confidence_brackets_rate(self):
        est = BerEstimate(errors=20, trials=400)
        lo, hi = est.confidence
        assert lo < est.rate < hi


class TestMeasurementHarness:
    def test_forward_ber_zero_at_close_range(self):
        from repro.ambient import OfdmLikeSource
        from repro.channel import ChannelModel, Scene
        from repro.fullduplex import FullDuplexConfig, FullDuplexLink

        cfg = FullDuplexConfig()
        src = OfdmLikeSource(sample_rate_hz=cfg.phy.sample_rate_hz,
                             bandwidth_hz=200e3)
        link = FullDuplexLink(cfg, src)
        est = measure_forward_ber(
            link, ChannelModel(), Scene.two_device_line(0.3),
            bits_per_trial=128, max_trials=3, min_trials=3, rng=0,
        )
        assert est.trials == 3 * 128
        assert est.rate == 0.0

    def test_early_stop_on_error_budget(self):
        from repro.ambient import OfdmLikeSource
        from repro.channel import ChannelModel, Scene
        from repro.fullduplex import FullDuplexConfig, FullDuplexLink

        cfg = FullDuplexConfig()
        src = OfdmLikeSource(sample_rate_hz=cfg.phy.sample_rate_hz,
                             bandwidth_hz=200e3)
        link = FullDuplexLink(cfg, src)
        est = measure_forward_ber(
            link, ChannelModel(), Scene.two_device_line(6.0),
            bits_per_trial=128, min_errors=10, max_trials=50,
            min_trials=2, rng=0,
        )
        # Distant link: errors plentiful, should stop well short of max.
        assert est.errors >= 10
        assert est.trials < 50 * 128

    def test_frame_delivery_feedback_has_its_own_stream(self, monkeypatch):
        """Regression: the frame payload and the feedback bits must come
        from *separate* spawned streams (the DESIGN §7 lane layout), so
        the feedback realisation cannot depend on the payload length."""
        import repro.analysis.ber as ber_mod
        from repro.ambient import ToneSource
        from repro.channel import ChannelModel, Scene
        from repro.fullduplex import FullDuplexConfig, FullDuplexLink
        from repro.phy import PhyConfig
        from repro.utils.rng import spawn_rngs

        phy = PhyConfig(sample_rate_hz=32_000.0, bit_rate_bps=1_000.0)
        cfg = FullDuplexConfig(phy=phy)
        link = FullDuplexLink(cfg, ToneSource(sample_rate_hz=phy.sample_rate_hz))

        frame_rngs, bit_rngs, frames = [], [], []
        real_frame, real_bits = ber_mod.random_frame, ber_mod.random_bits

        def spy_frame(payload_bytes, rng):
            frame_rngs.append(rng)
            frames.append(real_frame(payload_bytes, rng))
            return frames[-1]

        def spy_bits(rng, count):
            bit_rngs.append(rng)
            return real_bits(rng, count)

        monkeypatch.setattr(ber_mod, "random_frame", spy_frame)
        monkeypatch.setattr(ber_mod, "random_bits", spy_bits)
        ber_mod.measure_frame_delivery(
            link, ChannelModel(), Scene.two_device_line(0.5),
            payload_bytes=8, trials=2, rng=0,
        )
        assert len(frame_rngs) == 2 and len(bit_rngs) == 2
        for frame_rng, fb_rng in zip(frame_rngs, bit_rngs):
            assert frame_rng is not fb_rng
        # White-box layout check: trial i consumes children
        # (channel, frame, feedback, run) of one 4-way spawn, so a
        # shadow generator with the same seed must replay the frames.
        shadow = np.random.default_rng(0)
        for frame in frames:
            _, expected_rng, _, _ = spawn_rngs(shadow, 4)
            assert np.array_equal(
                frame.payload_bits, real_frame(8, expected_rng).payload_bits
            )


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [("x", 1.0), ("long", 22.5)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_scientific_for_extremes(self):
        table = format_table(["v"], [(1.2e-9,)])
        assert "e-09" in table

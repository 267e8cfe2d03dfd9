"""Collision detectors, feedback protocol semantics, rate adaptation."""

import numpy as np
import pytest

from repro.fullduplex.collision import (
    CrcOnlyDetector,
    EnergyAnomalyDetector,
    MarginCollapseDetector,
)
from repro.fullduplex.config import FullDuplexConfig
from repro.fullduplex.protocol import ACK_BIT, NACK_BIT, FeedbackProtocol
from repro.fullduplex.rateadapt import RateAdapter
from repro.hardware.energy import EnergyModel
from repro.phy.config import PhyConfig


def _clean_margins(n, rng, level=1.0, noise=0.05):
    return level + noise * rng.standard_normal(n)


class TestMarginCollapseDetector:
    def test_quiet_on_clean_reception(self):
        rng = np.random.default_rng(0)
        margins = _clean_margins(200, rng)
        verdict = MarginCollapseDetector().run(margins)
        assert not verdict.detected
        assert verdict.detection_bit == 200

    def test_fires_after_collapse(self):
        rng = np.random.default_rng(1)
        margins = _clean_margins(200, rng)
        margins[100:] = 0.01 * rng.standard_normal(100)
        verdict = MarginCollapseDetector(window_bits=8).run(margins)
        assert verdict.detected
        assert 100 <= verdict.detection_bit <= 120

    def test_detection_latency_scales_with_window(self):
        rng = np.random.default_rng(2)
        margins = _clean_margins(300, rng)
        margins[150:] = 0.0
        small = MarginCollapseDetector(window_bits=4).run(margins)
        large = MarginCollapseDetector(window_bits=32).run(margins)
        assert small.detected and large.detected
        assert small.detection_bit <= large.detection_bit

    def test_empty_input(self):
        verdict = MarginCollapseDetector().run(np.empty(0))
        assert not verdict.detected

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            MarginCollapseDetector(window_bits=0)
        with pytest.raises(ValueError):
            MarginCollapseDetector(quota=1.5)


class TestEnergyAnomalyDetector:
    def test_quiet_on_stationary_chips(self):
        rng = np.random.default_rng(3)
        soft = 1.0 + 0.1 * rng.standard_normal(400)
        verdict = EnergyAnomalyDetector().run(soft, chips_per_bit=2)
        assert not verdict.detected

    def test_fires_on_dispersion_jump(self):
        rng = np.random.default_rng(4)
        soft = 1.0 + 0.05 * rng.standard_normal(400)
        soft[200:] += 0.8 * rng.standard_normal(200)
        verdict = EnergyAnomalyDetector().run(soft, chips_per_bit=2)
        assert verdict.detected
        assert verdict.detection_bit >= 100  # in bit units (2 chips/bit)

    def test_short_input(self):
        verdict = EnergyAnomalyDetector().run(np.ones(4), chips_per_bit=2)
        assert not verdict.detected


class TestCrcOnlyDetector:
    def test_detects_only_at_end(self):
        verdict = CrcOnlyDetector().run(total_bits=500, crc_ok=False)
        assert verdict.detected and verdict.detection_bit == 500

    def test_clean_crc(self):
        verdict = CrcOnlyDetector().run(total_bits=500, crc_ok=True)
        assert not verdict.detected


class TestFeedbackProtocol:
    def _protocol(self, r=64):
        cfg = FullDuplexConfig(phy=PhyConfig(), asymmetry_ratio=r)
        return FeedbackProtocol(config=cfg, energy=EnergyModel())

    def test_abort_bit_rounding(self):
        p = self._protocol(r=64)
        # Detection at bit 10 -> NACK in slot 1 -> sender stops at end of
        # slot 1's decode, i.e. bit 128.
        assert p.abort_bit(10, packet_bits=1000) == 128

    def test_abort_bit_none_when_too_late(self):
        p = self._protocol(r=64)
        assert p.abort_bit(950, packet_bits=1000) is None

    def test_abort_monotone_in_detection(self):
        p = self._protocol(r=64)
        stops = [p.abort_bit(k, 10_000) for k in range(0, 5000, 100)]
        assert all(a <= b for a, b in zip(stops, stops[1:]))

    def test_verdict_clean(self):
        p = self._protocol(r=64)
        v = p.verdict(packet_bits=640, corrupted=False, detection_bit=None)
        assert v.delivered and not v.aborted
        assert v.bits_transmitted == 640
        assert v.airtime_bits == 640

    def test_verdict_aborted_saves_bits(self):
        p = self._protocol(r=64)
        v = p.verdict(packet_bits=1024, corrupted=True, detection_bit=5)
        assert not v.delivered and v.aborted
        assert v.bits_transmitted == 128
        assert v.tx_energy_joule < p.energy.tx_cost(1024)

    def test_verdict_late_detection_no_abort(self):
        p = self._protocol(r=64)
        v = p.verdict(packet_bits=256, corrupted=True, detection_bit=250)
        assert not v.delivered and not v.aborted
        assert v.bits_transmitted == 256

    def test_feedback_stream_flips_after_detection(self):
        p = self._protocol(r=64)
        stream = p.feedback_stream(num_slots=8, detection_bit=70)
        # detection at bit 70 -> slot 1 ends clean, NACK from slot 2.
        assert np.all(stream[:2] == ACK_BIT)
        assert np.all(stream[2:] == NACK_BIT)

    def test_feedback_stream_all_ack(self):
        p = self._protocol()
        assert np.all(p.feedback_stream(5, None) == ACK_BIT)

    def test_invalid_args(self):
        p = self._protocol()
        with pytest.raises(ValueError):
            p.abort_bit(-1, 100)
        with pytest.raises(ValueError):
            p.verdict(0, False, None)


class TestRateAdapter:
    def test_starts_at_start_index(self):
        ra = RateAdapter(start_index=2)
        assert ra.current_rate_bps == ra.rates_bps[2]

    def test_steps_up_after_streak(self):
        ra = RateAdapter(raise_after=3, start_index=0)
        for _ in range(3):
            ra.record(True)
        assert ra.current_rate_bps == ra.rates_bps[1]

    def test_steps_down_on_failure(self):
        ra = RateAdapter(raise_after=2, start_index=2)
        ra.record(False)
        assert ra.current_rate_bps == ra.rates_bps[1]

    def test_failure_resets_streak(self):
        ra = RateAdapter(raise_after=2, start_index=0)
        ra.record(True)
        ra.record(False)
        ra.record(True)
        assert ra.current_rate_bps == ra.rates_bps[0]

    def test_clamped_at_ladder_ends(self):
        ra = RateAdapter(raise_after=1, start_index=0)
        ra.record(False)
        assert ra.current_rate_bps == ra.rates_bps[0]
        for _ in range(20):
            ra.record(True)
        assert ra.current_rate_bps == ra.rates_bps[-1]

    def test_history_logs_rate_and_outcome(self):
        ra = RateAdapter(raise_after=2)
        first = ra.current_rate_bps
        ra.record(True)
        ra.record(False)
        assert ra.history == [(first, True), (first, False)]

    def test_rejects_bad_ladder(self):
        with pytest.raises(ValueError):
            RateAdapter(rates_bps=(2000.0, 1000.0))
        with pytest.raises(ValueError):
            RateAdapter(rates_bps=())
        with pytest.raises(ValueError):
            RateAdapter(start_index=99)

"""Full-duplex core tests: config, self-interference, feedback codec."""

import numpy as np
import pytest

from repro.fullduplex.config import FullDuplexConfig
from repro.fullduplex.feedback import (
    FeedbackDecoder,
    feedback_bits_for_frame,
    feedback_waveform,
)
from repro.fullduplex.selfinterference import (
    compensate_envelope,
    own_off_mask,
    residual_self_interference,
    through_power_waveform,
)
from repro.hardware.reflection import ReflectionStates
from repro.phy.config import PhyConfig


class TestFullDuplexConfig:
    def test_defaults(self):
        cfg = FullDuplexConfig()
        assert cfg.asymmetry_ratio == 64
        assert cfg.samples_per_feedback_bit == 64 * cfg.phy.samples_per_bit
        assert cfg.samples_per_feedback_half * 2 == cfg.samples_per_feedback_bit
        assert cfg.feedback_rate_bps == pytest.approx(
            cfg.phy.bit_rate_bps / 64
        )

    @pytest.mark.parametrize("bad", [0, 1, 3, 7, -2])
    def test_rejects_bad_ratio(self, bad):
        with pytest.raises(ValueError):
            FullDuplexConfig(asymmetry_ratio=bad)

    def test_rejects_bad_decode_mode(self):
        with pytest.raises(ValueError):
            FullDuplexConfig(feedback_decode="psychic")


class TestSelfInterference:
    def setup_method(self):
        self.states = ReflectionStates(absorb_gamma=0.0, reflect_gamma=0.6,
                                       efficiency=1.0)

    def test_through_power_levels(self):
        chips = np.array([0, 1, 0])
        tp = through_power_waveform(chips, self.states)
        assert np.allclose(tp, [1.0, 0.64, 1.0])

    def test_compensation_exact_without_smoothing(self):
        chips = np.tile([0, 1], 50)
        field_power = np.full(100, 2.0)
        gated = field_power * through_power_waveform(chips, self.states)
        restored = compensate_envelope(gated, chips, self.states)
        assert np.allclose(restored, field_power)

    def test_compensation_with_smoothing_tracks_edges(self):
        from repro.dsp.filters import single_pole_lowpass

        chips = np.repeat(np.tile([0, 1], 10), 64)
        field_power = np.full(chips.size, 3.0)
        alpha = 0.1
        env = single_pole_lowpass(
            field_power * through_power_waveform(chips, self.states), alpha
        )
        restored = compensate_envelope(env, chips, self.states,
                                       smoothing_alpha=alpha)
        assert np.allclose(restored[32:], 3.0, rtol=1e-6)

    def test_residual_metric_zero_after_compensation(self):
        chips = np.tile([0, 1], 200)
        env = np.full(400, 1.5) * through_power_waveform(chips, self.states)
        raw = residual_self_interference(env, chips)
        fixed = residual_self_interference(
            compensate_envelope(env, chips, self.states), chips
        )
        assert raw > 0.2
        assert fixed < 1e-9

    def test_own_off_mask(self):
        mask = own_off_mask(np.array([0, 1, 1, 0]))
        assert np.array_equal(mask, [True, False, False, True])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            compensate_envelope(np.ones(4), np.ones(3), self.states)
        with pytest.raises(ValueError):
            residual_self_interference(np.ones(4), np.ones(3))


class TestFeedbackWaveform:
    def _config(self, r=4):
        phy = PhyConfig(sample_rate_hz=32_000.0)
        return FullDuplexConfig(phy=phy, asymmetry_ratio=r)

    def test_manchester_structure(self):
        cfg = self._config(r=4)
        wave = feedback_waveform(np.array([1, 0]), cfg)
        half = cfg.samples_per_feedback_half
        assert wave.size == 2 * 2 * half
        assert np.all(wave[:half] == 1) and np.all(wave[half : 2 * half] == 0)
        assert np.all(wave[2 * half : 3 * half] == 0)
        assert np.all(wave[3 * half :] == 1)

    def test_dc_balanced(self):
        cfg = self._config()
        wave = feedback_waveform(np.array([1, 0, 1, 1, 0]), cfg)
        assert wave.mean() == pytest.approx(0.5)

    def test_bits_for_frame(self):
        cfg = self._config(r=4)
        per_bit = cfg.samples_per_feedback_bit
        assert feedback_bits_for_frame(3 * per_bit + 5, cfg) == 3
        assert feedback_bits_for_frame(per_bit - 1, cfg) == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            feedback_waveform(np.array([2]), self._config())


class TestFeedbackDecoder:
    def _config(self, r=4, mode="gated"):
        phy = PhyConfig(sample_rate_hz=32_000.0)
        return FullDuplexConfig(phy=phy, asymmetry_ratio=r,
                                feedback_decode=mode)

    def test_decodes_clean_envelope(self):
        cfg = self._config(mode="raw")
        bits = np.array([1, 0, 1, 1, 0, 0], dtype=np.uint8)
        # Envelope that is simply higher while the remote reflects.
        wave = feedback_waveform(bits, cfg).astype(float)
        env = 1.0 + 0.1 * wave
        decoded = FeedbackDecoder(cfg).decode(env, bits.size)
        assert np.array_equal(decoded, bits)

    def test_gated_mode_ignores_own_on_samples(self):
        cfg = self._config(mode="gated")
        bits = np.array([1, 0, 1], dtype=np.uint8)
        wave = feedback_waveform(bits, cfg).astype(float)
        env = 1.0 + 0.1 * wave
        # Corrupt exactly the samples where "own" modulator is on; the
        # gated decoder must not look at them.
        own = np.zeros(env.size, dtype=np.uint8)
        own[::3] = 1
        env_corrupted = env.copy()
        env_corrupted[own == 1] = 100.0
        decoded = FeedbackDecoder(cfg).decode(
            env_corrupted, bits.size, own_chip_waveform=own
        )
        assert np.array_equal(decoded, bits)

    def test_gated_requires_own_waveform(self):
        cfg = self._config(mode="gated")
        with pytest.raises(ValueError):
            FeedbackDecoder(cfg).decode(np.ones(10_000), 1)

    def test_envelope_too_short(self):
        cfg = self._config(mode="raw")
        with pytest.raises(ValueError):
            FeedbackDecoder(cfg).decode(np.ones(10), 4)

    def test_start_sample_offset(self):
        cfg = self._config(mode="raw")
        bits = np.array([0, 1], dtype=np.uint8)
        wave = feedback_waveform(bits, cfg).astype(float)
        env = np.concatenate([np.ones(100), 1.0 + 0.2 * wave])
        decoded = FeedbackDecoder(cfg).decode(env, bits.size, start_sample=100)
        assert np.array_equal(decoded, bits)

    def test_soft_margins_sign_matches_bits(self):
        cfg = self._config(mode="raw")
        bits = np.array([1, 0, 1, 0], dtype=np.uint8)
        env = 1.0 + 0.1 * feedback_waveform(bits, cfg).astype(float)
        margins = FeedbackDecoder(cfg).soft_margins(env, bits.size)
        assert np.all((margins > 0) == (bits == 1))

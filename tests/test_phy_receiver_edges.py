"""Receiver-chain edge cases and ablation behaviours."""

import numpy as np
import pytest

from repro.ambient import ToneSource
from repro.channel import ChannelModel, Scene
from repro.phy import BackscatterReceiver, BackscatterTransmitter, PhyConfig
from repro.phy.framing import random_frame
from repro.phy.softdecode import chip_threshold_batch, hard_chips_batch
from repro.utils.rng import random_bits


def _framed_wave(cfg, frame, pad_bits=4, rng_seed=0, distance=0.3):
    src = ToneSource(sample_rate_hz=cfg.sample_rate_hz, random_phase=False)
    channel = ChannelModel(noise_power_watt=0.0)
    gains = channel.realize(Scene.two_device_line(distance), rng=0)
    tx = BackscatterTransmitter(cfg)
    wf = tx.transmit(frame)
    pad = pad_bits * cfg.samples_per_bit
    gamma = np.concatenate([
        np.full(pad, tx.states.gamma_for(0)),
        wf.reflection_waveform,
        np.full(pad, tx.states.gamma_for(0)),
    ])
    ambient = src.samples(gamma.size, rng=rng_seed)
    return gains.received("bob", ambient, {"alice": gamma},
                          include_noise=False)


class TestReceiveFrameEdges:
    def test_truncated_body_fails_gracefully(self, fast_phy):
        frame = random_frame(16, rng=0)
        wave = _framed_wave(fast_phy, frame)
        # Cut the waveform in the middle of the body.
        cut = wave[: wave.size // 2]
        res = BackscatterReceiver(fast_phy).receive_frame(cut)
        assert not res.crc_ok
        assert res.frame is None

    def test_zero_payload_frame_roundtrip(self, fast_phy):
        frame = random_frame(0, rng=1)
        wave = _framed_wave(fast_phy, frame)
        res = BackscatterReceiver(fast_phy).receive_frame(wave)
        assert res.crc_ok
        assert res.frame.payload_bytes == 0

    def test_max_payload_frame_roundtrip(self, fast_phy):
        frame = random_frame(255, rng=2)
        wave = _framed_wave(fast_phy, frame)
        res = BackscatterReceiver(fast_phy).receive_frame(wave)
        assert res.crc_ok
        assert res.frame.payload_bytes == 255

    def test_back_to_back_frames_first_wins(self, fast_phy):
        # Two frames in one capture: the sync picks (one of) them and
        # decodes it intact; the receiver never crashes.
        frame = random_frame(8, rng=3)
        wave = _framed_wave(fast_phy, frame)
        double = np.concatenate([wave, wave])
        res = BackscatterReceiver(fast_phy).receive_frame(double)
        assert res.crc_ok
        assert np.array_equal(res.frame.payload_bits, frame.payload_bits)

    def test_result_delivered_property(self, fast_phy):
        frame = random_frame(4, rng=4)
        wave = _framed_wave(fast_phy, frame)
        res = BackscatterReceiver(fast_phy).receive_frame(wave)
        assert res.delivered == res.crc_ok


class TestThresholdAblation:
    def test_fixed_threshold_fails_under_self_interference(self, fast_phy):
        """The F6 mechanism at unit-test scale: a slow self-gating step
        breaks a fixed threshold but not the adaptive one."""
        rng = np.random.default_rng(5)
        bits = random_bits(rng, 64)
        from repro.phy.coding import nrz_encode

        cfg = PhyConfig(sample_rate_hz=32_000.0, coding="nrz")
        # Synthetic chip integrals: data swings ±10 % around a level
        # that steps by 2x halfway through (own switching).
        chips = nrz_encode(bits).astype(float)
        soft = 1.0 + 0.1 * (chips * 2 - 1)
        soft[32:] *= 2.0
        rx_adaptive = BackscatterReceiver(cfg, adaptive=True)
        rx_fixed = BackscatterReceiver(cfg, adaptive=False)
        window = cfg.threshold_window_bits * cfg.chips_per_bit
        adaptive_bits = rx_adaptive.soft_decode_bits(soft)
        fixed_bits = rx_fixed.soft_decode_bits(soft)
        adaptive_errors = np.count_nonzero(
            adaptive_bits[window:] != bits[window:]
        )
        fixed_errors = np.count_nonzero(fixed_bits != bits)
        # Fixed threshold slices everything after the step as 1.
        assert fixed_errors > 10
        # Adaptive tracks the step: residual errors (step transient plus
        # NRZ's run-induced drift) stay a small fraction of fixed's.
        assert adaptive_errors <= 8
        assert adaptive_errors < fixed_errors / 3

    def test_manchester_immune_to_level_steps(self, fast_phy):
        rng = np.random.default_rng(6)
        bits = random_bits(rng, 64)
        from repro.phy.coding import manchester_encode

        chips = manchester_encode(bits).astype(float)
        soft = 1.0 + 0.1 * (chips * 2 - 1)
        soft[64:] *= 2.0  # step between bit boundaries (chip 64 = bit 32)
        rx = BackscatterReceiver(fast_phy)
        decoded = rx.soft_decode_bits(soft)
        assert np.array_equal(decoded, bits)


class TestHardChipSlicer:
    """The comparator is a zero-hysteresis strict ``>`` slicer: a chip
    strictly above its lane's threshold is 1, one equal to or below is 0."""

    def test_strict_greater_than_per_lane(self, fast_phy):
        d = 2.0**-20
        # adaptive=False thresholds each lane at its run mean: 2.0 and 4.0.
        soft = np.array([
            [1.0, 3.0, 2.0, 2.0, 2.0],
            [0.0, 8.0, 4.0, 4.0 + d, 4.0 - d],
        ])
        thr = chip_threshold_batch(soft, fast_phy, adaptive=False)
        assert np.array_equal(thr, [[2.0] * 5, [4.0] * 5])
        hard = hard_chips_batch(soft, fast_phy, adaptive=False)
        assert hard.dtype == np.uint8
        assert np.array_equal(hard, [[0, 1, 0, 0, 0], [0, 1, 0, 1, 0]])


class TestSoftChipsBoundaries:
    def test_zero_count(self, fast_phy):
        rx = BackscatterReceiver(fast_phy)
        assert rx.soft_chips(np.ones(100), 0, 0).size == 0

    def test_negative_start_rejected(self, fast_phy):
        rx = BackscatterReceiver(fast_phy)
        with pytest.raises(ValueError):
            rx.soft_chips(np.ones(100), -1, 2)

    def test_insufficient_samples_returns_empty(self, fast_phy):
        rx = BackscatterReceiver(fast_phy)
        out = rx.soft_chips(np.ones(10), 0, 5)
        assert out.size == 0

    def test_exact_fit(self, fast_phy):
        rx = BackscatterReceiver(fast_phy)
        n = 3 * fast_phy.samples_per_chip
        out = rx.soft_chips(np.arange(float(n)), 0, 3)
        assert out.size == 3

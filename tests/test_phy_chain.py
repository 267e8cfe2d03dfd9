"""Transmit/receive chain tests: modulation, sync, aligned decode and
framed reception over deterministic and statistical channels."""

import numpy as np
import pytest

from repro.ambient import ToneSource
from repro.channel import Scene
from repro.phy import (
    BackscatterReceiver,
    BackscatterTransmitter,
    PhyConfig,
)
from repro.phy.framing import random_frame
from repro.phy.modulation import chip_waveform, chips_for_bits
from repro.phy.softdecode import chip_threshold_batch
from repro.phy.sync import acquire_frame_start
from repro.utils.rng import random_bits


def _transmit_over(scene, channel, config, tx_waveforms, pad_bits, source, rng,
                   device="bob", other="alice"):
    """Helper: compose the incident waveform at `device` for a padded
    transmission from `other`."""
    pad = pad_bits * config.samples_per_bit
    g0 = tx_waveforms_states_gamma0 = None
    gamma = np.concatenate([
        np.full(pad, 0.045),  # idle absorb-state residual reflection
        tx_waveforms.reflection_waveform,
        np.full(pad, 0.045),
    ])
    gains = channel.realize(scene, rng)
    ambient = source.samples(gamma.size, rng)
    return gains.received(device, ambient, {other: gamma}, rng=rng), pad


class TestModulation:
    def test_chip_waveform_expansion(self, fast_phy):
        chips = np.array([1, 0], dtype=np.uint8)
        wave = chip_waveform(chips, fast_phy)
        assert wave.size == 2 * fast_phy.samples_per_chip
        assert np.all(wave[: fast_phy.samples_per_chip] == 1)

    def test_chips_match_coding(self, fast_phy):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        chips = chips_for_bits(bits, fast_phy)
        assert chips.size == bits.size * fast_phy.chips_per_bit


class TestTransmitter:
    def test_frame_waveform_lengths_consistent(self, fast_phy):
        tx = BackscatterTransmitter(fast_phy)
        frame = random_frame(8, rng=0)
        wf = tx.transmit(frame)
        assert wf.chip_waveform.size == wf.reflection_waveform.size
        assert wf.num_samples == wf.chips.size * fast_phy.samples_per_chip

    def test_reflection_levels_match_states(self, fast_phy):
        tx = BackscatterTransmitter(fast_phy)
        wf = tx.transmit_bits(np.array([1, 0], dtype=np.uint8))
        levels = set(np.round(np.unique(wf.reflection_waveform), 9))
        expected = {
            round(tx.states.gamma_for(0), 9),
            round(tx.states.gamma_for(1), 9),
        }
        assert levels == expected


class TestSyncDeterministic:
    """Sync over a constant-envelope source with zero noise: exact."""

    def test_finds_frame_start(self, fast_phy, tone_source, quiet_channel):
        scene = Scene.two_device_line(0.3)
        tx = BackscatterTransmitter(fast_phy)
        frame = random_frame(4, rng=1)
        wf = tx.transmit(frame)
        wave, pad = _transmit_over(
            scene, quiet_channel, fast_phy, wf, 6, tone_source,
            np.random.default_rng(0),
        )
        rx = BackscatterReceiver(fast_phy)
        env = rx.envelope(wave)
        sync = acquire_frame_start(env, fast_phy)
        assert sync.found
        assert abs(sync.start_sample - (pad + fast_phy.detector_delay_samples)) <= 2

    def test_no_false_sync_on_idle_channel(self, fast_phy, tone_source,
                                           quiet_channel):
        scene = Scene.two_device_line(0.3)
        gains = quiet_channel.realize(scene, rng=0)
        ambient = tone_source.samples(8000, rng=0)
        wave = gains.received("bob", ambient, rng=1)
        rx = BackscatterReceiver(fast_phy)
        sync = acquire_frame_start(rx.envelope(wave), fast_phy)
        assert not sync.found

    def test_search_limit_respected(self, fast_phy):
        env = np.random.default_rng(0).uniform(0.5, 1.5, 4000)
        res = acquire_frame_start(env, fast_phy, search_limit=500)
        assert res.start_sample < 500

    def test_rejects_bad_threshold(self, fast_phy):
        with pytest.raises(ValueError):
            acquire_frame_start(np.ones(100), fast_phy, threshold=0.0)


class TestAlignedDecode:
    def test_perfect_decode_on_clean_channel(self, fast_phy, tone_source,
                                             quiet_channel):
        scene = Scene.two_device_line(0.3)
        tx = BackscatterTransmitter(fast_phy)
        bits = random_bits(2, 64)
        wf = tx.transmit_bits(bits)
        wave, pad = _transmit_over(
            scene, quiet_channel, fast_phy, wf, 4, tone_source,
            np.random.default_rng(3),
        )
        rx = BackscatterReceiver(fast_phy)
        decoded = rx.decode_aligned_bits(wave, bits.size, start_sample=pad)
        assert np.array_equal(decoded, bits)

    def test_all_codings_decode_clean(self, tone_source, quiet_channel):
        # Manchester decodes differentially (exact everywhere).  FM0 and
        # NRZ slice against the moving-average threshold, which needs a
        # settling window, and NRZ additionally cannot survive long
        # same-bit runs (it is the unbalanced strawman) — so FM0 is
        # checked after the threshold window and NRZ on a run-limited
        # pattern.
        scene = Scene.two_device_line(0.3)
        patterns = {
            "manchester": random_bits(4, 32),
            "fm0": random_bits(4, 32),
            "nrz": np.tile([1, 0, 1, 1, 0, 0], 6).astype(np.uint8)[:32],
        }
        for coding, bits in patterns.items():
            cfg = PhyConfig(sample_rate_hz=32_000.0, coding=coding)
            src = ToneSource(sample_rate_hz=cfg.sample_rate_hz,
                             random_phase=False)
            tx = BackscatterTransmitter(cfg)
            wf = tx.transmit_bits(bits)
            wave, pad = _transmit_over(
                scene, quiet_channel, cfg, wf, 4, src,
                np.random.default_rng(4),
            )
            rx = BackscatterReceiver(cfg)
            decoded = rx.decode_aligned_bits(wave, bits.size, start_sample=pad)
            skip = 0 if coding == "manchester" else cfg.threshold_window_bits
            assert np.array_equal(decoded[skip:], bits[skip:]), coding

    def test_too_short_waveform_raises(self, fast_phy):
        rx = BackscatterReceiver(fast_phy)
        with pytest.raises(ValueError):
            rx.decode_aligned_bits(np.ones(10, dtype=complex), 100)


class TestFramedReception:
    def test_end_to_end_delivery_default_config(self, default_phy,
                                                ofdm_source,
                                                default_channel):
        scene = Scene.two_device_line(0.5)
        tx = BackscatterTransmitter(default_phy)
        rng = np.random.default_rng(7)
        delivered = 0
        for _ in range(5):
            frame = random_frame(8, rng)
            wf = tx.transmit(frame)
            pad = 4 * default_phy.samples_per_bit
            gamma = np.concatenate([
                np.full(pad, tx.states.gamma_for(0)),
                wf.reflection_waveform,
                np.full(pad, tx.states.gamma_for(0)),
            ])
            gains = default_channel.realize(scene, rng)
            ambient = ofdm_source.samples(gamma.size, rng)
            wave = gains.received("bob", ambient, {"alice": gamma}, rng=rng)
            res = BackscatterReceiver(default_phy).receive_frame(wave)
            if res.delivered and np.array_equal(
                res.frame.payload_bits, frame.payload_bits
            ):
                delivered += 1
        assert delivered == 5

    def test_sync_failure_returns_gracefully(self, fast_phy):
        rx = BackscatterReceiver(fast_phy)
        noise = np.random.default_rng(0).standard_normal(6000) * 1e-6
        res = rx.receive_frame(noise.astype(complex))
        assert res.frame is None and not res.crc_ok

    def test_fixed_threshold_ablation_object(self, fast_phy):
        rx = BackscatterReceiver(fast_phy, adaptive=False)
        soft = np.tile([1.0, 3.0], 32)
        thr = chip_threshold_batch(soft[None], rx.config, rx.adaptive)[0]
        assert np.allclose(thr, 2.0)

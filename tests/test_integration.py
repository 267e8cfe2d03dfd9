"""Cross-layer integration tests: the claims the benchmarks rely on,
verified at reduced scale."""

import numpy as np
import pytest

from repro.ambient import OfdmLikeSource
from repro.analysis.ber import (
    measure_feedback_ber,
    measure_forward_ber,
    measure_frame_delivery,
)
from repro.channel import ChannelModel, RayleighFading, Scene
from repro.fullduplex import FullDuplexConfig, FullDuplexLink
from repro.fullduplex.collision import MarginCollapseDetector
from repro.phy import BackscatterReceiver, BackscatterTransmitter
from repro.utils.rng import random_bits

pytestmark = pytest.mark.integration


def _make_link(asymmetry_ratio=64, self_compensation=True):
    cfg = FullDuplexConfig(asymmetry_ratio=asymmetry_ratio,
                           self_compensation=self_compensation)
    src = OfdmLikeSource(sample_rate_hz=cfg.phy.sample_rate_hz,
                         bandwidth_hz=200e3)
    return cfg, FullDuplexLink(cfg, src)


class TestBerVsDistanceShape:
    """BER must rise monotonically (statistically) with distance — the
    F1/F2 curve shape."""

    def test_forward_ber_rises_with_distance(self):
        _, link = _make_link()
        channel = ChannelModel()
        near = measure_forward_ber(
            link, channel, Scene.two_device_line(0.5),
            bits_per_trial=128, max_trials=6, min_trials=6, rng=0,
        )
        far = measure_forward_ber(
            link, channel, Scene.two_device_line(5.0),
            bits_per_trial=128, max_trials=6, min_trials=6, rng=0,
        )
        assert near.rate == 0.0
        assert far.rate > 0.01

    def test_feedback_survives_where_data_does(self):
        _, link = _make_link()
        channel = ChannelModel()
        fb = measure_feedback_ber(
            link, channel, Scene.two_device_line(2.0),
            bits_per_trial=256, max_trials=5, min_trials=5, rng=1,
        )
        assert fb.rate == 0.0  # r=64 averaging gain


class TestFrameDelivery:
    def test_delivery_collapses_with_distance(self):
        _, link = _make_link()
        channel = ChannelModel()
        near = measure_frame_delivery(
            link, channel, Scene.two_device_line(0.5),
            payload_bytes=8, trials=5, rng=2,
        )
        far = measure_frame_delivery(
            link, channel, Scene.two_device_line(8.0),
            payload_bytes=8, trials=5, rng=2,
        )
        assert near.rate == 0.0  # all delivered
        assert far.rate == 1.0  # none delivered

    def test_rayleigh_fading_degrades_delivery(self):
        _, link = _make_link()
        static = ChannelModel()
        faded = ChannelModel(device_fading=RayleighFading())
        scene = Scene.two_device_line(1.5)
        d_static = measure_frame_delivery(link, static, scene,
                                          payload_bytes=8, trials=8, rng=3)
        d_faded = measure_frame_delivery(link, faded, scene,
                                         payload_bytes=8, trials=8, rng=3)
        assert d_faded.rate >= d_static.rate


class TestAsymmetryTradeoff:
    """F3: larger r → more feedback averaging gain, fewer feedback bits."""

    def test_feedback_error_free_across_ratios(self):
        channel = ChannelModel()
        scene = Scene.two_device_line(1.0)
        for r in (16, 64):
            _, link = _make_link(asymmetry_ratio=r)
            est = measure_feedback_ber(
                link, channel, scene, bits_per_trial=256,
                max_trials=4, min_trials=4, rng=4,
            )
            assert est.rate == 0.0, r

    def test_small_ratio_without_compensation_hurts_more(self):
        channel = ChannelModel()
        scene = Scene.two_device_line(0.5)
        rates = {}
        for r in (8, 64):
            _, link = _make_link(asymmetry_ratio=r, self_compensation=False)
            est = measure_forward_ber(
                link, channel, scene, bits_per_trial=256,
                max_trials=6, min_trials=6, rng=5,
            )
            rates[r] = est.rate
        # More feedback edges per data bit at small r -> larger residual.
        assert rates[8] > rates[64]


class TestInReceptionCollisionDetection:
    """A colliding third tag must be detectable mid-packet from the
    decision margins — the mechanism behind early abort."""

    def _reception(self, collide: bool, rng_seed: int = 0):
        """``(margins, sent bits, decoded bits)`` over the observed span."""
        cfg = FullDuplexConfig()
        phy = cfg.phy
        src = OfdmLikeSource(sample_rate_hz=phy.sample_rate_hz,
                             bandwidth_hz=200e3)
        rng = np.random.default_rng(rng_seed)
        scene = Scene.two_device_line(0.5)
        scene.place("carol", 0.3, 0.4)
        gains = ChannelModel().realize(scene, rng)

        bits = random_bits(rng, 192)
        tx = BackscatterTransmitter(phy)
        wf = tx.transmit_bits(bits)
        n = wf.num_samples
        reflections = {"alice": wf.reflection_waveform}
        if collide:
            # carol starts backscattering one third into the packet.
            collider_bits = random_bits(rng, 192)
            cw = BackscatterTransmitter(phy).transmit_bits(collider_bits)
            gamma_c = np.zeros(n)
            start = n // 3
            seg = cw.reflection_waveform[: n - start]
            gamma_c[start : start + seg.size] = seg
            reflections["carol"] = gamma_c
        ambient = src.samples(n, rng)
        incident = gains.received("bob", ambient, reflections, rng=rng)
        rx = BackscatterReceiver(phy)
        env = rx.envelope(incident)
        # 190 of the 192 bits: the detector delay shifts the usable span.
        soft = rx.soft_chips(env, phy.detector_delay_samples, 190 * 2)
        assert soft.size == 190 * 2
        # Manchester margins: half-difference per bit.
        return soft[0::2] - soft[1::2], bits[:190], rx.soft_decode_bits(soft)

    def test_clean_reception_not_flagged(self):
        margins, bits, decoded = self._reception(collide=False)
        assert np.array_equal(decoded, bits)
        verdict = MarginCollapseDetector().run(np.abs(margins))
        assert not verdict.detected

    def test_collision_detected_near_its_onset(self):
        margins, _, _ = self._reception(collide=True)
        verdict = MarginCollapseDetector().run(np.abs(margins))
        assert verdict.detected
        # Onset at bit 64 (one third of 192); detection shortly after.
        assert 64 <= verdict.detection_bit <= 110

    def test_decision_errors_start_at_onset(self):
        _, bits, decoded = self._reception(collide=True)
        # The collider is silent before bit 64, so every earlier
        # decision is correct; after the onset the victim misdecodes.
        assert np.array_equal(decoded[:64], bits[:64])
        assert np.count_nonzero(decoded[64:] != bits[64:]) > 0


class TestEnergyHarvestDuringExchange:
    def test_receiver_harvests_more_when_absorbing(self):
        cfg, link = _make_link()
        channel = ChannelModel()
        scene = Scene.two_device_line(0.5)
        rng = np.random.default_rng(6)
        from repro.phy.framing import random_frame

        frame = random_frame(16, rng)
        gains = channel.realize(scene, rng)
        with_fb = link.run(gains, frame, random_bits(rng, 8),
                           rng=np.random.default_rng(7))
        without_fb = link.run(gains, frame, random_bits(rng, 8),
                              rng=np.random.default_rng(7),
                              feedback_enabled=False)
        # Backscattering feedback diverts power from B's harvester.
        assert without_fb.harvested_b_joule >= with_fb.harvested_b_joule

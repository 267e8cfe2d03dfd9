"""Path-loss and fading model tests."""

import numpy as np
import pytest

from repro.channel.fading import (
    NoFading,
    RayleighFading,
    RicianFading,
    make_fading,
)
from repro.channel.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    TwoRayGroundPathLoss,
)


class TestFreeSpace:
    def test_friis_value(self):
        # At 539 MHz, 1 m: (lambda/4 pi)^2 ~ (0.0443)^2 ~ -27.1 dB.
        g = FreeSpacePathLoss(frequency_hz=539e6).gain(1.0)
        assert 10 * np.log10(g) == pytest.approx(-27.1, abs=0.2)

    def test_inverse_square(self):
        m = FreeSpacePathLoss()
        assert m.gain(2.0) == pytest.approx(m.gain(1.0) / 4.0)

    def test_clamped_below_min_distance(self):
        m = FreeSpacePathLoss(min_distance_m=0.1)
        assert m.gain(0.01) == m.gain(0.1)

    def test_never_exceeds_unity(self):
        m = FreeSpacePathLoss(frequency_hz=1e6, min_distance_m=0.001)
        assert m.gain(0.001) <= 1.0

    def test_amplitude_gain_is_sqrt(self):
        m = FreeSpacePathLoss()
        assert m.amplitude_gain(3.0) == pytest.approx(np.sqrt(m.gain(3.0)))


class TestLogDistance:
    def test_matches_friis_at_reference(self):
        ld = LogDistancePathLoss(exponent=3.0, reference_m=1.0)
        fs = FreeSpacePathLoss()
        assert ld.gain(1.0) == pytest.approx(fs.gain(1.0))

    def test_exponent_slope(self):
        ld = LogDistancePathLoss(exponent=3.0, reference_m=1.0)
        ratio_db = 10 * np.log10(ld.gain(10.0) / ld.gain(1.0))
        assert ratio_db == pytest.approx(-30.0, abs=0.1)

    def test_friis_inside_reference(self):
        ld = LogDistancePathLoss(exponent=3.5, reference_m=2.0)
        fs = FreeSpacePathLoss()
        assert ld.gain(0.5) == pytest.approx(fs.gain(0.5))

    def test_steeper_than_free_space_beyond_reference(self):
        ld = LogDistancePathLoss(exponent=3.5, reference_m=1.0)
        fs = FreeSpacePathLoss()
        assert ld.gain(50.0) < fs.gain(50.0)


class TestTwoRay:
    def test_crossover_distance_formula(self):
        m = TwoRayGroundPathLoss(frequency_hz=539e6, tx_height_m=100.0,
                                 rx_height_m=1.0)
        lam = 3e8 / 539e6
        assert m.crossover_distance() == pytest.approx(
            4 * np.pi * 100.0 / lam, rel=1e-3
        )

    def test_friis_inside_crossover(self):
        m = TwoRayGroundPathLoss()
        fs = FreeSpacePathLoss(min_distance_m=m.min_distance_m)
        d = m.crossover_distance() / 10
        assert m.gain(d) == pytest.approx(fs.gain(d))

    def test_fourth_power_beyond_crossover(self):
        m = TwoRayGroundPathLoss()
        d = m.crossover_distance() * 4
        ratio_db = 10 * np.log10(m.gain(2 * d) / m.gain(d))
        assert ratio_db == pytest.approx(-12.04, abs=0.1)

    def test_continuous_at_crossover(self):
        m = TwoRayGroundPathLoss()
        dc = m.crossover_distance()
        assert m.gain(dc * 0.999) == pytest.approx(m.gain(dc * 1.001), rel=0.02)


def _draws(model, count, seed):
    """``count`` block gains drawn one at a time, as the channel does."""
    gen = np.random.default_rng(seed)
    return np.array([model.sample(gen) for _ in range(count)])


class TestFading:
    def test_no_fading_unit_gain(self):
        h = NoFading().sample()
        assert abs(h) == pytest.approx(1.0)

    def test_no_fading_phase(self):
        h = NoFading(phase_rad=np.pi / 2).sample()
        assert h.real == pytest.approx(0.0, abs=1e-12)
        assert h.imag == pytest.approx(1.0)

    def test_rayleigh_unit_mean_power(self):
        hs = _draws(RayleighFading(), 20_000, 0)
        assert np.mean(np.abs(hs) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_rayleigh_zero_mean(self):
        hs = _draws(RayleighFading(), 20_000, 1)
        assert abs(hs.mean()) < 0.02

    def test_rician_unit_mean_power(self):
        hs = _draws(RicianFading(k_factor=4.0), 20_000, 2)
        assert np.mean(np.abs(hs) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_rician_k_zero_matches_rayleigh_spread(self):
        hs = _draws(RicianFading(k_factor=0.0), 20_000, 3)
        # envelope^2 of Rayleigh is exponential: std/mean = 1.
        p = np.abs(hs) ** 2
        assert p.std() / p.mean() == pytest.approx(1.0, rel=0.1)

    def test_large_k_is_nearly_static(self):
        hs = _draws(RicianFading(k_factor=1000.0), 5000, 4)
        assert np.abs(hs).std() < 0.05

    def test_factory(self):
        assert isinstance(make_fading("static"), NoFading)
        assert isinstance(make_fading("rayleigh"), RayleighFading)
        assert isinstance(make_fading("rician", k_factor=2.0), RicianFading)
        with pytest.raises(ValueError):
            make_fading("nakagami")

    def test_rician_rejects_negative_k(self):
        with pytest.raises(ValueError):
            RicianFading(k_factor=-1.0)

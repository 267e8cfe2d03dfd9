"""Envelope detection tests."""

import numpy as np
import pytest

from repro.dsp.envelope import envelope_power, square_law_detector


class TestEnvelopePower:
    def test_complex_magnitude_squared(self):
        x = np.array([1 + 1j, 2j, -3.0])
        assert np.allclose(envelope_power(x), [2.0, 4.0, 9.0])

    def test_real_input_squares(self):
        assert np.allclose(envelope_power(np.array([2.0, -2.0])), [4.0, 4.0])

    def test_output_real_nonnegative(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        p = envelope_power(x)
        assert p.dtype.kind == "f"
        assert np.all(p >= 0)


class TestSquareLawDetector:
    def test_no_smoothing_equals_power(self):
        x = np.array([1.0, 2j, 3.0])
        out = square_law_detector(x, 1e4, None)
        assert np.allclose(out, envelope_power(x))

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
        raw = square_law_detector(x, 1e5, None)
        smooth = square_law_detector(x, 1e5, 1e-3)
        assert smooth[500:].std() < 0.3 * raw[500:].std()

    def test_preserves_mean_power(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
        smooth = square_law_detector(x, 1e5, 5e-4)
        assert smooth.mean() == pytest.approx(envelope_power(x).mean(), rel=0.05)

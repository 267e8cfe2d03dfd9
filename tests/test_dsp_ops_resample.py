"""Correlation and expansion tests."""

import numpy as np
import pytest

from repro.dsp.ops import (
    normalized_correlation,
    repeat_samples,
    sliding_windows,
)


class TestRepeatSamples:
    def test_expansion(self):
        out = repeat_samples(np.array([1, 0, 1]), 3)
        assert np.array_equal(out, [1, 1, 1, 0, 0, 0, 1, 1, 1])

    def test_factor_one(self):
        x = np.array([1, 2, 3])
        assert np.array_equal(repeat_samples(x, 1), x)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            repeat_samples(np.array([1]), 0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            repeat_samples(np.ones((2, 2)), 2)


class TestNormalizedCorrelation:
    def test_perfect_match_scores_one(self):
        pattern = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        x = np.concatenate([np.zeros(3) + 0.1 * np.arange(3), pattern, np.zeros(4)])
        x[:3] = [0.3, -0.2, 0.1]
        corr = normalized_correlation(x, pattern)
        assert corr.max() == pytest.approx(1.0)
        assert int(np.argmax(corr)) == 3

    def test_scale_and_offset_invariant(self):
        pattern = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        noise = np.zeros(5) + np.random.default_rng(0).standard_normal(5)
        x = 5.0 + 0.01 * np.concatenate([noise, pattern, np.zeros(5)])
        corr = normalized_correlation(x, pattern)
        assert corr.max() > 0.99

    def test_anticorrelation_is_minus_one(self):
        pattern = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        corr = normalized_correlation(-pattern, pattern)
        assert corr[0] == pytest.approx(-1.0)

    def test_output_length(self):
        corr = normalized_correlation(np.random.default_rng(1).standard_normal(20),
                                      np.array([1.0, -1.0, 0.5]))
        assert corr.size == 18

    def test_pattern_longer_than_input(self):
        assert normalized_correlation(np.ones(2), np.array([1.0, -1.0, 1.0])).size == 0

    def test_constant_window_scores_zero(self):
        pattern = np.array([1.0, -1.0, 1.0])
        x = np.concatenate([np.full(5, 2.0), pattern])
        corr = normalized_correlation(x, pattern)
        assert corr[0] == pytest.approx(0.0)

    def test_rejects_constant_pattern(self):
        with pytest.raises(ValueError):
            normalized_correlation(np.ones(10), np.ones(3))

    def test_bounded(self):
        rng = np.random.default_rng(3)
        corr = normalized_correlation(rng.standard_normal(200),
                                      rng.standard_normal(10))
        assert np.all(corr <= 1.0) and np.all(corr >= -1.0)


class TestSlidingWindows:
    def test_shapes(self):
        out = sliding_windows(np.arange(10), 4, step=2)
        assert out.shape == (4, 4)
        assert np.array_equal(out[1], [2, 3, 4, 5])

    def test_short_input(self):
        assert sliding_windows(np.arange(3), 5).shape == (0, 5)

"""Filter tests: moving average, IIR smoothing, integrate-and-dump."""

import numpy as np
import pytest

from repro.dsp.filters import (
    alpha_for_time_constant,
    integrate_and_dump,
    moving_average,
    single_pole_lowpass,
)


class TestMovingAverage:
    def test_constant_input_is_identity(self):
        x = np.full(100, 3.5)
        assert np.allclose(moving_average(x, 7), 3.5)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        w = 6
        out = moving_average(x, w)
        for n in range(x.size):
            lo = max(0, n - w + 1)
            assert out[n] == pytest.approx(x[lo : n + 1].mean())

    def test_window_one_is_identity(self):
        x = np.arange(10.0)
        assert np.array_equal(moving_average(x, 1), x)

    def test_window_longer_than_input(self):
        x = np.array([2.0, 4.0])
        out = moving_average(x, 10)
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(3.0)

    def test_empty_input(self):
        assert moving_average(np.empty(0), 4).size == 0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            moving_average(np.ones(5), 0)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            moving_average(np.ones((2, 2, 2)), 1)

    def test_batch_rows_match_scalar(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 37))
        out = moving_average(x, 5)
        for row in range(x.shape[0]):
            assert np.array_equal(out[row], moving_average(x[row], 5))

    def test_step_tracking(self):
        # After a level step, the average reaches the new level within
        # one window — the property the adaptive threshold relies on.
        x = np.concatenate([np.zeros(50), np.ones(50)])
        out = moving_average(x, 10)
        assert out[49] == pytest.approx(0.0)
        assert out[59] == pytest.approx(1.0)


class TestSinglePoleLowpass:
    def test_starts_at_first_sample(self):
        x = np.array([5.0, 5.0, 5.0])
        out = single_pole_lowpass(x, 0.1)
        assert out[0] == pytest.approx(5.0)

    def test_constant_passthrough(self):
        x = np.full(64, 2.0)
        assert np.allclose(single_pole_lowpass(x, 0.25), 2.0)

    def test_alpha_one_is_identity(self):
        x = np.random.default_rng(1).standard_normal(32)
        assert np.allclose(single_pole_lowpass(x, 1.0), x)

    def test_recursion_definition(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        alpha = 0.5
        out = single_pole_lowpass(x, alpha)
        expected = [1.0]
        for v in x[1:]:
            expected.append(0.5 * expected[-1] + 0.5 * v)
        assert np.allclose(out, expected)

    def test_smooths_noise(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(10_000)
        out = single_pole_lowpass(x, 0.05)
        assert out[100:].std() < 0.3 * x.std()

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError):
            single_pole_lowpass(np.ones(4), alpha)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            single_pole_lowpass(np.ones((2, 2, 2)), 0.5)

    def test_batch_rows_match_scalar(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 64))
        out = single_pole_lowpass(x, 0.2)
        for row in range(x.shape[0]):
            assert np.array_equal(out[row], single_pole_lowpass(x[row], 0.2))


class TestAlphaForTimeConstant:
    def test_in_unit_interval(self):
        a = alpha_for_time_constant(1e-3, 1e5)
        assert 0.0 < a < 1.0

    def test_small_alpha_approximation(self):
        # For tau*fs >> 1, alpha ~ 1/(tau*fs).
        a = alpha_for_time_constant(1.0, 1e6)
        assert a == pytest.approx(1e-6, rel=1e-3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            alpha_for_time_constant(0.0, 1e5)
        with pytest.raises(ValueError):
            alpha_for_time_constant(1e-3, 0.0)


class TestIntegrateAndDump:
    def test_block_means(self):
        x = np.array([1.0, 3.0, 5.0, 7.0])
        assert np.allclose(integrate_and_dump(x, 2), [2.0, 6.0])

    def test_discards_trailing_remainder(self):
        x = np.arange(7.0)
        assert integrate_and_dump(x, 3).size == 2

    def test_period_one_identity(self):
        x = np.arange(5.0)
        assert np.array_equal(integrate_and_dump(x, 1), x)

    def test_short_input_gives_empty(self):
        assert integrate_and_dump(np.ones(3), 5).size == 0

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            integrate_and_dump(np.ones(4), 0)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            integrate_and_dump(np.ones((2, 2, 2)), 1)

    def test_batch_rows_match_scalar(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 23))
        out = integrate_and_dump(x, 4)
        assert out.shape == (3, 5)
        for row in range(x.shape[0]):
            assert np.array_equal(out[row], integrate_and_dump(x[row], 4))

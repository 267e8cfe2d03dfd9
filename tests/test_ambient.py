"""Ambient-source tests: statistics the receiver design depends on."""

import numpy as np
import pytest

from repro.ambient.sources import (
    FilteredNoiseSource,
    OfdmLikeSource,
    ToneSource,
)
from repro.utils.validation import check_positive


# Spectral measurement references: they verify that a synthetic source
# actually has the bandwidth/coherence the receiver design assumes.


def occupied_bandwidth(
    x: np.ndarray, sample_rate_hz: float, fraction: float = 0.99
) -> float:
    """Bandwidth [Hz] containing ``fraction`` of the waveform's power.

    Computed from the periodogram of the complex baseband samples; the
    result is the width of the smallest symmetric-percentile frequency
    interval holding the requested power fraction.
    """
    check_positive("sample_rate_hz", sample_rate_hz)
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    arr = np.asarray(x, dtype=complex)
    if arr.size < 8:
        raise ValueError("need at least 8 samples to estimate bandwidth")
    spec = np.abs(np.fft.fftshift(np.fft.fft(arr))) ** 2
    freqs = np.fft.fftshift(np.fft.fftfreq(arr.size, d=1.0 / sample_rate_hz))
    total = spec.sum()
    if total == 0:
        return 0.0
    cdf = np.cumsum(spec) / total
    tail = (1.0 - fraction) / 2.0
    lo = freqs[np.searchsorted(cdf, tail)]
    hi = freqs[min(np.searchsorted(cdf, 1.0 - tail), arr.size - 1)]
    return float(hi - lo)


def coherence_samples(x: np.ndarray, threshold: float = 0.5) -> int:
    """Envelope-power coherence length in samples.

    The first lag at which the autocorrelation of the (mean-removed)
    instantaneous power drops below ``threshold`` of its zero-lag value.
    The receiver's smoothing and averaging windows must exceed this for
    the envelope statistics to average out.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    arr = np.asarray(x)
    power = (arr * np.conj(arr)).real if np.iscomplexobj(arr) else arr ** 2
    p = power - power.mean()
    if p.size < 4 or np.allclose(p, 0):
        return 1
    # FFT autocorrelation, normalised to lag zero.
    n = int(2 ** np.ceil(np.log2(2 * p.size)))
    spec = np.fft.rfft(p, n)
    acorr = np.fft.irfft(spec * np.conj(spec))[: p.size]
    acorr /= acorr[0]
    below = np.nonzero(acorr < threshold)[0]
    return int(below[0]) if below.size else int(p.size)


class TestOfdmLikeSource:
    def setup_method(self):
        self.src = OfdmLikeSource(sample_rate_hz=256e3, bandwidth_hz=200e3)

    def test_unit_mean_power(self):
        x = self.src.samples(8192, rng=0)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=1e-6)

    def test_length_and_dtype(self):
        x = self.src.samples(100, rng=0)
        assert x.size == 100 and np.iscomplexobj(x)

    def test_fresh_realisations_differ(self):
        gen = np.random.default_rng(0)
        a = self.src.samples(256, gen)
        b = self.src.samples(256, gen)
        assert not np.allclose(a, b)

    def test_deterministic_given_seed(self):
        assert np.allclose(self.src.samples(128, rng=5),
                           self.src.samples(128, rng=5))

    def test_envelope_fluctuates(self):
        # Rayleigh-like envelope: instantaneous power has std ~ mean.
        x = self.src.samples(16384, rng=1)
        p = np.abs(x) ** 2
        assert p.std() > 0.5 * p.mean()

    def test_occupied_bandwidth_near_config(self):
        x = self.src.samples(16384, rng=2)
        bw = occupied_bandwidth(x, 256e3, fraction=0.95)
        assert 120e3 < bw < 240e3

    def test_chip_mean_stability(self):
        # The calibration property: per-chip (128-sample) means vary far
        # less than the raw envelope — the receiver's processing gain.
        x = self.src.samples(128 * 200, rng=3)
        p = (np.abs(x) ** 2).reshape(200, 128).mean(axis=1)
        assert p.std() / p.mean() < 0.1

    def test_zero_count(self):
        assert self.src.samples(0).size == 0

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            self.src.samples(-1)

    def test_rejects_bandwidth_above_fs(self):
        with pytest.raises(ValueError):
            OfdmLikeSource(sample_rate_hz=1e5, bandwidth_hz=2e5)


    def test_tone_matrix_cache_is_bounded(self):
        from repro.ambient.sources import _phase_matrix_for

        for count in range(1, 101):
            self.src.samples(count, rng=count)
        assert _phase_matrix_for.cache_info().currsize == 4

    def test_cached_tone_matrix_is_read_only(self):
        from repro.ambient.sources import _phase_matrix_for

        self.src.samples(64, rng=0)
        matrix = _phase_matrix_for(
            64, self.src.sample_rate_hz, self.src.bandwidth_hz,
            self.src.subcarriers,
        )
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0


class TestToneSource:
    def test_constant_envelope(self):
        src = ToneSource(sample_rate_hz=1e5, random_phase=False)
        x = src.samples(1000, rng=0)
        assert np.allclose(np.abs(x), 1.0)

    def test_offset_frequency(self):
        src = ToneSource(sample_rate_hz=1e5, offset_hz=1e4, random_phase=False)
        x = src.samples(4096, rng=0)
        spec = np.abs(np.fft.fft(x))
        peak = np.fft.fftfreq(x.size, 1e-5)[np.argmax(spec)]
        assert peak == pytest.approx(1e4, abs=50)

    def test_random_phase_varies(self):
        src = ToneSource(sample_rate_hz=1e5)
        gen = np.random.default_rng(0)
        assert not np.allclose(src.samples(16, gen), src.samples(16, gen))

    def test_rejects_offset_beyond_nyquist(self):
        with pytest.raises(ValueError):
            ToneSource(sample_rate_hz=1e5, offset_hz=6e4)

    def test_batch_zero_count_consumes_phase_like_scalar(self):
        # The lane-seeding contract: batch_samples must advance each
        # lane's generator exactly as the scalar path would — including
        # the phase draw samples() makes before returning an empty
        # window.
        src = ToneSource(sample_rate_hz=1e5)
        scalar_gen = np.random.default_rng(7)
        batch_gen = np.random.default_rng(7)
        src.samples(0, scalar_gen)
        out = src.batch_samples(0, [batch_gen])
        assert out.shape == (1, 0)
        assert scalar_gen.uniform() == batch_gen.uniform()


class TestFilteredNoiseSource:
    def test_unit_power(self):
        src = FilteredNoiseSource(sample_rate_hz=1e5, coherence_samples=8)
        x = src.samples(8192, rng=0)
        assert np.mean(np.abs(x) ** 2) == pytest.approx(1.0, rel=1e-6)

    def test_coherence_scales_with_kernel(self):
        short = FilteredNoiseSource(sample_rate_hz=1e5, coherence_samples=2)
        long = FilteredNoiseSource(sample_rate_hz=1e5, coherence_samples=32)
        cs = coherence_samples(short.samples(16384, rng=1))
        cl = coherence_samples(long.samples(16384, rng=1))
        assert cl > 4 * cs


class TestSpectrumHelpers:
    def test_occupied_bandwidth_of_tone_is_narrow(self):
        src = ToneSource(sample_rate_hz=1e5, random_phase=False)
        bw = occupied_bandwidth(src.samples(4096, rng=0), 1e5)
        assert bw < 1e3

    def test_bandwidth_requires_enough_samples(self):
        with pytest.raises(ValueError):
            occupied_bandwidth(np.ones(4, dtype=complex), 1e5)

    def test_coherence_of_white_noise_is_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)
        assert coherence_samples(x) <= 2

    def test_coherence_threshold_validation(self):
        with pytest.raises(ValueError):
            coherence_samples(np.ones(16, dtype=complex), threshold=1.5)

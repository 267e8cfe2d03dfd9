"""Spectral measurement helpers for ambient sources.

The ambient tests use these as a measurement reference: they verify
that a synthetic source actually has the bandwidth/coherence the
receiver design assumes.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


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

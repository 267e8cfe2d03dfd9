"""Smoothing and integration filters.

The backscatter receiver's analog chain is modelled with two filters:

* :func:`single_pole_lowpass` — the RC smoothing capacitor after the
  square-law envelope detector;
* :func:`moving_average` — the longer averaging window that sets the
  comparator threshold.

Both are causal, run in O(n), and are exact (no FFT edge effects), which
matters because the adaptive-threshold behaviour at *packet edges* is part
of what the full-duplex design relies on.

Every filter accepts either one waveform (1-D) or a batch of waveforms
(2-D, one per row) and applies along the last axis.  The batched result
is **bitwise identical** to filtering each row separately — the batched
trial engine (:mod:`repro.experiments.batch`) relies on this for its
scalar-equivalence guarantee.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Causal moving average with a ramp-up head.

    ``out[n]`` is the mean of ``x[max(0, n - window + 1) : n + 1]`` — for
    the first ``window - 1`` samples the average runs over the shorter
    prefix, mirroring a hardware integrator charging from empty.

    Parameters
    ----------
    x:
        Real input samples: one waveform (1-D) or a batch of waveforms
        (2-D, averaged along the last axis).
    window:
        Averaging length in samples (``>= 1``).
    """
    check_positive("window", window)
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("moving_average expects a 1-D or 2-D array")
    if arr.size == 0:
        return arr.copy()
    csum = np.cumsum(arr, axis=-1)
    out = np.empty_like(arr)
    w = int(window)
    n = arr.shape[-1]
    if n <= w:
        out[...] = csum / np.arange(1, n + 1)
        return out
    out[..., :w] = csum[..., :w] / np.arange(1, w + 1)
    out[..., w:] = (csum[..., w:] - csum[..., :-w]) / w
    return out


def single_pole_lowpass(x: np.ndarray, alpha: float) -> np.ndarray:
    """First-order IIR smoother ``y[n] = (1-alpha) y[n-1] + alpha x[n]``.

    ``alpha`` in ``(0, 1]`` is the per-sample update weight; the equivalent
    RC time constant is ``tau = -1 / (fs * ln(1 - alpha))`` for small
    ``alpha``.  ``alpha = 1`` passes the input through.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha!r}")
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("single_pole_lowpass expects a 1-D or 2-D array")
    if arr.size == 0 or alpha == 1.0:
        return arr.copy()
    # Evaluate the recursion y[n] = (1-alpha) y[n-1] + alpha x[n] with
    # scipy's direct-form filter; the initial state pre-charges the
    # integrator to x[0] so y[0] == x[0] (capacitor starts at the first
    # sample rather than at zero).  A 2-D batch filters each row along
    # the last axis with its own initial state.
    from scipy.signal import lfilter

    zi = (1.0 - alpha) * arr[..., :1]
    out, _ = lfilter([alpha], [1.0, -(1.0 - alpha)], arr, axis=-1, zi=zi)
    return out


def alpha_for_time_constant(tau_seconds: float, sample_rate_hz: float) -> float:
    """Per-sample IIR weight for an RC time constant at a sample rate.

    Uses the exact discretisation ``alpha = 1 - exp(-1 / (tau * fs))``.
    """
    check_positive("tau_seconds", tau_seconds)
    check_positive("sample_rate_hz", sample_rate_hz)
    return 1.0 - float(np.exp(-1.0 / (tau_seconds * sample_rate_hz)))


def integrate_and_dump(x: np.ndarray, period: int) -> np.ndarray:
    """Mean of each consecutive block of ``period`` samples.

    The classic matched filter for rectangular OOK chips: one output per
    chip.  Trailing samples that do not fill a block are discarded.
    A 2-D batch integrates each row along the last axis.
    """
    check_positive("period", period)
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValueError("integrate_and_dump expects a 1-D or 2-D array")
    p = int(period)
    nblocks = arr.shape[-1] // p
    if nblocks == 0:
        return np.empty(arr.shape[:-1] + (0,), dtype=float)
    blocks = arr[..., : nblocks * p].reshape(arr.shape[:-1] + (nblocks, p))
    return blocks.mean(axis=-1)

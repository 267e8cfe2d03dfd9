"""Correlation, expansion and comparison helpers used by the framing layer."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


def repeat_samples(symbols: np.ndarray, samples_per_symbol: int) -> np.ndarray:
    """Expand a symbol sequence to a rectangular sample-level waveform.

    Each symbol is held for ``samples_per_symbol`` samples — the switching
    waveform a backscatter modulator actually produces.
    """
    check_positive("samples_per_symbol", samples_per_symbol)
    arr = np.asarray(symbols)
    if arr.ndim != 1:
        raise ValueError("repeat_samples expects a 1-D array")
    return np.repeat(arr, int(samples_per_symbol))


def normalized_correlation(x: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Sliding normalised correlation of ``pattern`` against ``x``.

    Both inputs are treated as real sequences; each window of ``x`` and the
    pattern are mean-removed and scale-normalised, so the output lies in
    ``[-1, 1]`` and a value near ``+1`` marks a pattern occurrence
    regardless of the absolute envelope level.  Windows with (near-)zero
    variance correlate to 0.

    Returns an array of length ``len(x) - len(pattern) + 1``; empty if the
    pattern is longer than the input.
    """
    xs = np.asarray(x, dtype=float)
    p = np.asarray(pattern, dtype=float)
    if xs.ndim != 1 or p.ndim != 1:
        raise ValueError("normalized_correlation expects 1-D arrays")
    if p.size == 0:
        raise ValueError("pattern must be non-empty")
    n = xs.size - p.size + 1
    if n <= 0:
        return np.empty(0, dtype=float)
    p0 = p - p.mean()
    p_norm = np.sqrt(np.sum(p0 * p0))
    if p_norm == 0:
        raise ValueError("pattern must not be constant")
    m = p.size
    csum = np.concatenate(([0.0], np.cumsum(xs)))
    csum2 = np.concatenate(([0.0], np.cumsum(xs * xs)))
    win_sum = csum[m:] - csum[:-m]
    win_sum2 = csum2[m:] - csum2[:-m]
    # Cross-correlation with the mean-removed pattern; removing the window
    # mean is unnecessary because p0 sums to zero.
    cross = np.correlate(xs, p0, mode="valid")
    win_var = win_sum2 - win_sum * win_sum / m
    win_var = np.maximum(win_var, 0.0)
    denom = np.sqrt(win_var) * p_norm
    out = np.zeros(n, dtype=float)
    good = denom > 1e-30
    out[good] = cross[good] / denom[good]
    return np.clip(out, -1.0, 1.0)


def sliding_windows(x: np.ndarray, window: int, step: int = 1) -> np.ndarray:
    """Strided view of overlapping windows (read-only).

    A thin wrapper over numpy's ``sliding_window_view`` with a step,
    used by the collision detector's short-time statistics.
    """
    check_positive("window", window)
    check_positive("step", step)
    arr = np.asarray(x)
    if arr.ndim != 1:
        raise ValueError("sliding_windows expects a 1-D array")
    if arr.size < window:
        return np.empty((0, window), dtype=arr.dtype)
    view = np.lib.stride_tricks.sliding_window_view(arr, window)
    return view[::step]

"""Receiver noise generation."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative


def complex_awgn(count: int, power_watt: float, rng=None) -> np.ndarray:
    """Circularly-symmetric complex Gaussian noise of mean power
    ``power_watt``.

    ``power_watt = 0`` returns exact zeros (noise-free experiments).
    """
    check_non_negative("power_watt", power_watt)
    if count < 0:
        raise ValueError("count must be non-negative")
    n = int(count)
    if power_watt == 0.0:
        return np.zeros(n, dtype=complex)
    gen = ensure_rng(rng)
    sigma = np.sqrt(power_watt / 2.0)
    return sigma * (gen.standard_normal(n) + 1j * gen.standard_normal(n))

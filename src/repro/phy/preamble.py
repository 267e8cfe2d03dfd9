"""Preamble patterns and templates.

A frame opens with a warm-up run (alternating bits that let the
receiver's moving-average threshold settle) followed by a Barker-13 sync
word, whose autocorrelation sidelobes are minimal — the correlator in
:mod:`repro.phy.sync` locks onto it to find the frame start.
"""

from __future__ import annotations

import numpy as np

from repro.phy.coding import encode

#: Barker-13 sequence mapped to bits (+1 → 1, −1 → 0).
BARKER13_BITS = np.array([1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1], dtype=np.uint8)


def warmup_bits(count: int) -> np.ndarray:
    """Alternating 1/0 run that settles the adaptive threshold."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return (np.arange(count) % 2 == 0).astype(np.uint8)


def default_preamble_bits(warmup: int = 8) -> np.ndarray:
    """Warm-up run followed by the Barker-13 sync word."""
    return np.concatenate([warmup_bits(warmup), BARKER13_BITS])


def preamble_template(coding: str, warmup: int = 8) -> np.ndarray:
    """Chip-level template of the default preamble under a line code.

    The sync correlator matches this template (expanded to sample rate)
    against the sliced receive stream.
    """
    return encode(default_preamble_bits(warmup), coding)

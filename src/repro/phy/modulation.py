"""Bits → sample-level chip waveforms."""

from __future__ import annotations

import numpy as np

from repro.dsp.ops import repeat_samples
from repro.phy import coding as lc
from repro.phy.config import PhyConfig


def chips_for_bits(bits: np.ndarray, config: PhyConfig) -> np.ndarray:
    """Line-code a bit array into chips under a PHY config."""
    return lc.encode(bits, config.coding)


def chip_waveform(chips: np.ndarray, config: PhyConfig) -> np.ndarray:
    """Expand a chip array to a rectangular 0/1 waveform at sample rate."""
    return repeat_samples(np.asarray(chips, dtype=np.uint8),
                          config.samples_per_chip)

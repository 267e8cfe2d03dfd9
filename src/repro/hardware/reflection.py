"""Antenna reflection states and the backscatter modulator.

A backscatter transmitter conveys bits by toggling its antenna impedance
between a matched (absorbing) and a deliberately mismatched (reflecting)
state.  The complex reflection coefficient Γ of each state sets the
amplitude of the re-radiated wave; its squared magnitude is the reflected
power fraction.

The modulator also reports the *through* fraction ``sqrt(1 - |Γ|²)`` of
each state: whatever is not reflected is available to the envelope
detector and the harvester.  A device that is currently reflecting
therefore hears less — the self-interference mechanism the full-duplex
design must (and does) tolerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dsp.ops import repeat_samples
from repro.utils.validation import check_in_range


@dataclass(frozen=True)
class ReflectionStates:
    """The two impedance states of an OOK backscatter modulator.

    Attributes
    ----------
    absorb_gamma:
        Reflection amplitude in the "0" (matched) state.  Real hardware
        never reaches a perfect match; the small default models residual
        structural reflection.
    reflect_gamma:
        Reflection amplitude in the "1" (mismatched) state.  Practical
        switched-impedance tags reach |Γ| of 0.5–0.8; the default 0.75
        is the calibrated operating point used across the benchmarks.
    efficiency:
        Re-radiation efficiency of the antenna (ohmic losses), applied to
        the reflected amplitude.
    """

    absorb_gamma: float = 0.05
    reflect_gamma: float = 0.75
    efficiency: float = 0.9

    def __post_init__(self) -> None:
        check_in_range("absorb_gamma", self.absorb_gamma, 0.0, 1.0)
        check_in_range("reflect_gamma", self.reflect_gamma, 0.0, 1.0)
        check_in_range("efficiency", self.efficiency, 0.0, 1.0)
        if self.reflect_gamma <= self.absorb_gamma:
            raise ValueError(
                "reflect_gamma must exceed absorb_gamma "
                f"({self.reflect_gamma} <= {self.absorb_gamma})"
            )

    def gamma_for(self, chip: int) -> float:
        """Effective reflection amplitude for a chip value (0 or 1)."""
        base = self.reflect_gamma if chip else self.absorb_gamma
        return base * self.efficiency

    def through_for(self, chip: int) -> float:
        """Amplitude fraction passed to the receive/harvest path."""
        gamma = self.reflect_gamma if chip else self.absorb_gamma
        return math.sqrt(max(0.0, 1.0 - gamma * gamma))

    def modulation_depth(self) -> float:
        """Reflected-power swing between the two states, the quantity the
        remote receiver's SNR is proportional to."""
        hi = (self.reflect_gamma * self.efficiency) ** 2
        lo = (self.absorb_gamma * self.efficiency) ** 2
        return hi - lo


@dataclass(frozen=True)
class ReflectionModulator:
    """Chip stream → sample-level reflection / through waveforms.

    Parameters
    ----------
    states:
        The two impedance states.
    samples_per_chip:
        Hold length of each chip at the simulation rate.
    """

    states: ReflectionStates = ReflectionStates()
    samples_per_chip: int = 1

    def __post_init__(self) -> None:
        if self.samples_per_chip < 1:
            raise ValueError("samples_per_chip must be >= 1")

    def reflection_waveform(self, chips: np.ndarray) -> np.ndarray:
        """Instantaneous reflection amplitude Γ[n] for a chip stream."""
        chips = np.asarray(chips).astype(np.uint8)
        levels = np.where(
            chips > 0,
            self.states.gamma_for(1),
            self.states.gamma_for(0),
        ).astype(float)
        return repeat_samples(levels, self.samples_per_chip)

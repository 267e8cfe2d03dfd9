"""The tag front end: antenna, detector and harvester wired together.

:class:`TagFrontEnd` captures the physical coupling at the heart of
full-duplex backscatter: a single antenna feeds the modulator, the
envelope detector and the harvester simultaneously.  When the tag
reflects (transmit chip = 1) less power flows inward, so

* its **detector** sees the incident field scaled by the through
  amplitude of its current reflection state (self-interference on
  receive), and
* its **harvester** loses the reflected fraction (transmitting costs
  harvest, not battery).

Both effects are applied here, from the tag's *own* chip waveform, so
every layer above (PHY, full-duplex link, MAC) inherits them for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.envelope import envelope_power
from repro.hardware.detector import EnvelopeDetector
from repro.hardware.harvester import EnergyHarvester
from repro.hardware.reflection import ReflectionModulator, ReflectionStates


@dataclass
class TagFrontEnd:
    """One device's analog front end.

    Attributes
    ----------
    detector:
        Envelope detector (sets the smoothing time constant).
    harvester:
        RF→DC converter.
    states:
        The modulator's two impedance states, shared with
        :class:`~repro.hardware.reflection.ReflectionModulator`.
    """

    detector: EnvelopeDetector
    harvester: EnergyHarvester = field(default_factory=EnergyHarvester)
    states: ReflectionStates = field(default_factory=ReflectionStates)

    def modulator(self, samples_per_chip: int) -> ReflectionModulator:
        """A modulator bound to this front end's impedance states."""
        return ReflectionModulator(
            states=self.states, samples_per_chip=samples_per_chip
        )

    def receive_envelope(
        self,
        incident: np.ndarray,
        own_chip_waveform: np.ndarray | None = None,
    ) -> np.ndarray:
        """Detector output for an incident field while (possibly)
        transmitting.

        Parameters
        ----------
        incident:
            Complex field at the antenna (from
            :meth:`repro.channel.link.LinkGains.received`).
        own_chip_waveform:
            This tag's own transmit chips expanded to sample rate (0/1
            values), or ``None`` when the tag is purely listening.  When
            present, the incident field is scaled per-sample by the
            through amplitude of the corresponding reflection state.
        """
        x = np.asarray(incident, dtype=complex)
        if own_chip_waveform is not None:
            chips = np.asarray(own_chip_waveform)
            if chips.shape != x.shape:
                raise ValueError(
                    f"own chip waveform shape {chips.shape} != incident {x.shape}"
                )
            through = np.where(
                chips > 0,
                self.states.through_for(1),
                self.states.through_for(0),
            )
            x = x * through
        return self.detector.detect(x)

    def harvested_energy(
        self,
        incident: np.ndarray,
        own_chip_waveform: np.ndarray | None = None,
    ) -> float:
        """DC energy [J] harvested from an incident field over a block.

        The harvester receives the non-reflected power fraction
        ``1 - |Γ(state)|²`` sample by sample.
        """
        x = np.asarray(incident, dtype=complex)
        power = envelope_power(x)
        if own_chip_waveform is not None:
            chips = np.asarray(own_chip_waveform)
            if chips.shape != x.shape:
                raise ValueError(
                    f"own chip waveform shape {chips.shape} != incident {x.shape}"
                )
            through_power = np.where(
                chips > 0,
                self.states.through_for(1) ** 2,
                self.states.through_for(0) ** 2,
            )
            power = power * through_power
        return self.harvester.harvested_energy(
            power, self.detector.sample_rate_hz
        )

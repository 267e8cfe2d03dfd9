"""Behavioural models of the battery-free tag hardware.

A full-duplex backscatter tag is built from (paper, Fig. "tag
architecture"):

* an antenna whose impedance is switched between two states by the
  modulator — :mod:`repro.hardware.reflection`;
* a square-law envelope detector + RC network — :mod:`repro.hardware.detector`;
* an RF energy harvester — :mod:`repro.hardware.harvester`;
* an energy ledger tracking harvest and consumption —
  :mod:`repro.hardware.energy`;
* :class:`repro.hardware.tag.TagFrontEnd` wiring them together, including
  the self-reception gating that a device's own reflection state imposes
  on its receive path (the physical root of full-duplex self-interference).

The comparator that slices chips is modelled in the PHY, as the
zero-hysteresis slicer :func:`repro.phy.softdecode.hard_chips_batch`.
"""

from repro.hardware.detector import EnvelopeDetector
from repro.hardware.dutycycle import (
    EnergyNeutralController,
    sustainable_packet_rate,
)
from repro.hardware.energy import EnergyLedger, EnergyModel
from repro.hardware.harvester import EnergyHarvester
from repro.hardware.reflection import ReflectionModulator, ReflectionStates
from repro.hardware.tag import TagFrontEnd

__all__ = [
    "EnergyHarvester",
    "EnergyLedger",
    "EnergyModel",
    "EnergyNeutralController",
    "EnvelopeDetector",
    "ReflectionModulator",
    "ReflectionStates",
    "TagFrontEnd",
    "sustainable_packet_rate",
]

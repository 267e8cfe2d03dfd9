"""PHY configuration: rates, coding and receiver windows.

One frozen dataclass ties together the sample rate, bit rate, line code
and receiver constants, and derives the integer samples-per-chip the
sample-level simulator requires.  Defaults follow the ambient-backscatter
operating point: 1 kbps data over a wideband ambient source, envelope
smoothing well under a chip, threshold window of a few bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phy.coding import CHIPS_PER_BIT
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class PhyConfig:
    """Rates and receiver constants for one backscatter link.

    Attributes
    ----------
    sample_rate_hz:
        Simulation sample rate.  Must be an integer multiple of the chip
        rate (``bit_rate_bps * chips_per_bit``).
    bit_rate_bps:
        Data bit rate (1 kbps default — the paper's prototype rate).
    coding:
        Line code: ``"manchester"`` (default), ``"fm0"`` or ``"nrz"``.
        The prototype used an FM0-style code; we default to Manchester
        because its half-bit structure admits a *differential* soft bit
        decision (compare the two half-bit integrals directly), which
        needs no threshold in the data path and is markedly more robust
        over a fluctuating ambient envelope.  FM0 remains available and
        is decoded from hard chips.
    warmup_bits:
        Alternating bits prepended to every frame so the adaptive
        threshold settles before the sync word.
    threshold_window_bits:
        Moving-average threshold length in *bits*.  Must be several bits
        (so data averages out) and — for full-duplex operation — well
        under one feedback bit.
    smoothing_fraction_of_chip:
        Detector RC time constant as a fraction of a chip period.
    """

    sample_rate_hz: float = 256_000.0
    bit_rate_bps: float = 1_000.0
    coding: str = "manchester"
    warmup_bits: int = 8
    threshold_window_bits: int = 4
    smoothing_fraction_of_chip: float = 0.125

    def __post_init__(self) -> None:
        check_positive("sample_rate_hz", self.sample_rate_hz)
        check_positive("bit_rate_bps", self.bit_rate_bps)
        if self.coding not in CHIPS_PER_BIT:
            raise ValueError(
                f"unknown coding {self.coding!r}; "
                f"choose from {sorted(CHIPS_PER_BIT)}"
            )
        if self.warmup_bits < 2:
            raise ValueError("warmup_bits must be >= 2")
        check_positive("threshold_window_bits", self.threshold_window_bits)
        if not 0.0 < self.smoothing_fraction_of_chip <= 1.0:
            raise ValueError("smoothing_fraction_of_chip must be in (0, 1]")
        ratio = self.sample_rate_hz / self.chip_rate_hz
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 4:
            raise ValueError(
                "sample_rate_hz must be an integer multiple (>= 4x) of the "
                f"chip rate {self.chip_rate_hz} Hz, got ratio {ratio}"
            )

    @property
    def chips_per_bit(self) -> int:
        """Chips per data bit under the configured line code."""
        return CHIPS_PER_BIT[self.coding]

    @property
    def chip_rate_hz(self) -> float:
        """Chip rate = bit rate × chips per bit."""
        return self.bit_rate_bps * self.chips_per_bit

    @property
    def samples_per_chip(self) -> int:
        """Integer samples per chip at the simulation rate."""
        return int(round(self.sample_rate_hz / self.chip_rate_hz))

    @property
    def samples_per_bit(self) -> int:
        """Integer samples per data bit."""
        return self.samples_per_chip * self.chips_per_bit

    @property
    def smoothing_tau_s(self) -> float:
        """Detector RC time constant [s]."""
        chip_period = 1.0 / self.chip_rate_hz
        return self.smoothing_fraction_of_chip * chip_period

    @property
    def detector_delay_samples(self) -> int:
        """Group delay of the detector's RC smoothing stage.

        A single-pole smoother delays the envelope by roughly its time
        constant; aligned-decode callers shift their start offsets by
        this much (the sync correlator finds the delayed position on its
        own, since it searches the same smoothed envelope).
        """
        return int(round(self.smoothing_fraction_of_chip * self.samples_per_chip))

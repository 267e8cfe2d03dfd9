"""Receiver DSP primitives.

Everything an ultra-low-power backscatter receiver is allowed to do lives
here: moving averages, single-pole RC smoothing, square-law envelope
detection, and the correlation / chip-expansion helpers used by the
framing layer.  These functions are deliberately simple — the HotNets
2013 receiver is an analog envelope detector followed by a comparator,
and the models stay at that level of fidelity.
"""

from repro.dsp.envelope import envelope_power, square_law_detector
from repro.dsp.filters import (
    integrate_and_dump,
    moving_average,
    single_pole_lowpass,
)
from repro.dsp.ops import (
    normalized_correlation,
    repeat_samples,
    sliding_windows,
)

__all__ = [
    "envelope_power",
    "integrate_and_dump",
    "moving_average",
    "normalized_correlation",
    "repeat_samples",
    "single_pole_lowpass",
    "sliding_windows",
    "square_law_detector",
]

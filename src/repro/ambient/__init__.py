"""Ambient RF excitation sources.

Ambient backscatter devices have no transmitter of their own: they ride on
an ambient broadcast signal (a TV tower in the paper's prototype).  This
package provides synthetic complex-baseband sources with the statistics
that matter to the envelope-detecting receiver:

* :class:`OfdmLikeSource` — Gaussian multicarrier, the stand-in for a real
  DVB/ATSC multiplex (Rayleigh envelope, flat in band);
* :class:`ToneSource` — constant-envelope carrier, the best case for
  envelope detection (an RFID-reader-like illuminator);
* :class:`FilteredNoiseSource` — band-limited Gaussian noise with a
  configurable coherence time, for stressing the averaging windows.

All sources emit unit-mean-power waveforms; absolute power is applied by
the channel layer from the source EIRP and path loss.
"""

from repro.ambient.sources import (
    AmbientSource,
    FilteredNoiseSource,
    OfdmLikeSource,
    ToneSource,
)

__all__ = [
    "AmbientSource",
    "FilteredNoiseSource",
    "OfdmLikeSource",
    "ToneSource",
]

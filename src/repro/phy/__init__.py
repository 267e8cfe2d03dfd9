"""Half-duplex ambient backscatter PHY (the SIGCOMM 2013 baseline).

The layer stack, bottom-up:

* :mod:`repro.phy.crc` — CRC-16 frame checks;
* :mod:`repro.phy.coding` — DC-balanced line codes (FM0, Manchester, NRZ);
* :mod:`repro.phy.preamble` — sync patterns and correlation detection;
* :mod:`repro.phy.framing` — frame build/parse (preamble | length |
  payload | CRC-16);
* :mod:`repro.phy.modulation` — bits → chip waveforms at sample rate;
* :mod:`repro.phy.transmitter` / :mod:`repro.phy.receiver` — the full TX
  and RX chains over a channel realisation;
* :mod:`repro.phy.sync` — frame-start acquisition;
* :mod:`repro.phy.config` — one dataclass tying the rates together.

The full-duplex layer (:mod:`repro.fullduplex`) composes these chains —
it changes *when* devices reflect, not how bits are coded.
"""

from repro.phy.coding import (
    fm0_decode,
    fm0_encode,
    manchester_decode,
    manchester_encode,
    nrz_decode,
    nrz_encode,
)
from repro.phy.config import PhyConfig
from repro.phy.crc import append_crc16, check_crc16, crc16
from repro.phy.framing import Frame, build_frame, parse_frame
from repro.phy.modulation import chip_waveform, chips_for_bits
from repro.phy.preamble import default_preamble_bits, preamble_template
from repro.phy.receiver import BackscatterReceiver, ReceiveResult
from repro.phy.sync import acquire_frame_start
from repro.phy.transmitter import BackscatterTransmitter, TxWaveforms

__all__ = [
    "BackscatterReceiver",
    "BackscatterTransmitter",
    "Frame",
    "PhyConfig",
    "ReceiveResult",
    "TxWaveforms",
    "acquire_frame_start",
    "append_crc16",
    "build_frame",
    "check_crc16",
    "chip_waveform",
    "chips_for_bits",
    "crc16",
    "default_preamble_bits",
    "fm0_decode",
    "fm0_encode",
    "manchester_decode",
    "manchester_encode",
    "nrz_decode",
    "nrz_encode",
    "parse_frame",
    "preamble_template",
]

"""Feedback-channel protocol semantics: instantaneous ACK / NACK.

The feedback stream carries one of two symbols per feedback-bit slot:

* ``ACK_BIT`` (1) — "reception still clean, keep going";
* ``NACK_BIT`` (0) — "corruption detected, abort".

The receiver transmits ACK continuously while its in-reception detector
(:mod:`repro.fullduplex.collision`) stays quiet, and switches to NACK the
slot after detection.  The transmitter decodes each feedback bit as it
completes and aborts on the first NACK — so the abort latency is the
detection latency rounded up to the next feedback-slot boundary, plus one
slot for the NACK itself to arrive.

:class:`FeedbackProtocol` computes packet verdicts (bits actually
transmitted, energy spent, delivered-or-not) from a detection event,
which is what the MAC simulator consumes;
:func:`FeedbackProtocol.feedback_stream` produces the literal bit stream
for sample-level experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fullduplex.config import FullDuplexConfig
from repro.hardware.energy import EnergyModel

#: Feedback symbol meaning "reception clean, continue".
ACK_BIT = 1

#: Feedback symbol meaning "corruption detected, abort".
NACK_BIT = 0


@dataclass(frozen=True)
class PacketVerdict:
    """What actually happened to one packet transmission.

    Attributes
    ----------
    delivered:
        Packet received intact.
    aborted:
        Transmission stopped early on a NACK.
    bits_transmitted:
        Data bits the transmitter actually sent (= packet length unless
        aborted).
    tx_energy_joule / rx_energy_joule:
        Energy spent by transmitter and receiver on this attempt
        (including the receiver's feedback transmission cost).
    airtime_bits:
        Channel occupancy in data-bit periods (what contention models
        charge).
    """

    delivered: bool
    aborted: bool
    bits_transmitted: int
    tx_energy_joule: float
    rx_energy_joule: float
    airtime_bits: int


@dataclass
class FeedbackProtocol:
    """Early-abort ARQ over the full-duplex feedback channel.

    Attributes
    ----------
    config:
        Full-duplex parameters (the asymmetry ratio sets feedback-slot
        granularity and therefore abort latency).
    energy:
        Per-operation energy model shared with the MAC layer.
    """

    config: FullDuplexConfig
    energy: EnergyModel

    def abort_bit(self, detection_bit: int, packet_bits: int) -> int | None:
        """Data-bit index at which the transmitter stops, for a detector
        that fired at ``detection_bit`` — or ``None`` when the NACK
        cannot arrive before the packet ends anyway.

        The receiver can only flip to NACK at the *next* feedback-slot
        boundary after detection, and the transmitter decodes that slot
        when it completes.
        """
        if detection_bit < 0:
            raise ValueError("detection_bit must be non-negative")
        if packet_bits <= 0:
            raise ValueError("packet_bits must be positive")
        r = self.config.asymmetry_ratio
        nack_slot = math.floor(detection_bit / r) + 1
        stop_bit = (nack_slot + 1) * r
        return stop_bit if stop_bit < packet_bits else None

    def verdict(
        self,
        packet_bits: int,
        corrupted: bool,
        detection_bit: int | None,
    ) -> PacketVerdict:
        """Packet outcome under full-duplex early abort.

        Parameters
        ----------
        packet_bits:
            Over-the-air packet length in data bits.
        corrupted:
            Whether this attempt was doomed (collision or channel loss).
        detection_bit:
            When corrupted: the data-bit index at which the receiver's
            detector fired (``None`` = never fired before the end, e.g. a
            CRC-only detector or a missed detection).
        """
        if packet_bits <= 0:
            raise ValueError("packet_bits must be positive")
        if not corrupted:
            return PacketVerdict(
                delivered=True,
                aborted=False,
                bits_transmitted=packet_bits,
                tx_energy_joule=self.energy.tx_cost(packet_bits),
                rx_energy_joule=(
                    self.energy.rx_cost(packet_bits)
                    + self.energy.feedback_cost(
                        packet_bits // self.config.asymmetry_ratio
                    )
                ),
                airtime_bits=packet_bits,
            )
        stop = None
        if detection_bit is not None:
            stop = self.abort_bit(detection_bit, packet_bits)
        sent = packet_bits if stop is None else stop
        return PacketVerdict(
            delivered=False,
            aborted=stop is not None,
            bits_transmitted=sent,
            tx_energy_joule=self.energy.tx_cost(sent),
            rx_energy_joule=(
                self.energy.rx_cost(sent)
                + self.energy.feedback_cost(sent // self.config.asymmetry_ratio)
            ),
            airtime_bits=sent,
        )

    def feedback_stream(
        self, num_slots: int, detection_bit: int | None
    ) -> np.ndarray:
        """The literal feedback bit stream the receiver transmits.

        ACK until the slot after ``detection_bit``, NACK from then on;
        all ACK when ``detection_bit`` is ``None``.
        """
        if num_slots < 0:
            raise ValueError("num_slots must be non-negative")
        stream = np.full(num_slots, ACK_BIT, dtype=np.uint8)
        if detection_bit is not None:
            r = self.config.asymmetry_ratio
            first_nack = math.floor(detection_bit / r) + 1
            if first_nack < num_slots:
                stream[first_nack:] = NACK_BIT
        return stream

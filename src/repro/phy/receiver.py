"""Backscatter receive chain.

The pipeline, modelled after the analog/digital split of the prototype
hardware:

1. square-law envelope detection with light RC smoothing (analog);
2. chip-period integration — the analog integrator that recovers the
   processing gain over the fluctuating ambient envelope;
3. adaptive moving-average threshold over a few bits of chip integrals
   (analog RC divider);
4. comparator → hard chips (analog→digital);
5. preamble correlation on the pre-averaged envelope → frame start;
6. line-code decode → bits → frame parse + CRC (digital).

The same chain serves half-duplex reception and the receive half of
full-duplex operation — in the latter case the caller passes the
device's *own* transmit chip waveform so the front end applies the
self-reception gating, and the adaptive threshold absorbs the resulting
slow level steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.filters import integrate_and_dump
from repro.hardware.detector import EnvelopeDetector
from repro.hardware.reflection import ReflectionStates
from repro.hardware.tag import TagFrontEnd
from repro.phy.config import PhyConfig
from repro.phy.framing import (
    LENGTH_FIELD_BITS,
    Frame,
    body_bits_for_payload,
    parse_frame,
)
from repro.phy.preamble import default_preamble_bits
from repro.phy.softdecode import (
    decode_aligned_batch,
    soft_decode_bits_batch,
)
from repro.phy.sync import SyncResult, acquire_frame_start


@dataclass(frozen=True)
class ReceiveResult:
    """Outcome of one frame reception attempt.

    Attributes
    ----------
    frame:
        Parsed frame, or ``None`` when sync or parsing failed.
    crc_ok:
        True only when a frame parsed and its CRC validated.
    sync:
        Preamble acquisition details.
    body_bits:
        The decoded post-preamble bits (diagnostics; empty on sync fail).
    """

    frame: Frame | None
    crc_ok: bool
    sync: SyncResult
    body_bits: np.ndarray

    @property
    def delivered(self) -> bool:
        """Frame received intact (sync + parse + CRC)."""
        return self.crc_ok


@dataclass
class BackscatterReceiver:
    """Configurable receive chain.

    Attributes
    ----------
    config:
        PHY rates/coding (must match the transmitter's).
    adaptive:
        Use the moving-average threshold (the paper's design).  False
        switches to a fixed whole-record mean threshold — the ablation
        strawman that breaks under full-duplex self-interference.
    states:
        This device's impedance states (used only for self-reception
        gating when it is also transmitting).
    sync_threshold:
        Minimum preamble correlation to accept a frame.
    self_compensation:
        When receiving while transmitting (full-duplex), divide the
        envelope by the known through-power of the device's *own*
        reflection state.  The device knows its own switching waveform
        exactly, so this digital correction removes the self-interference
        steps up to the detector's RC smearing at edges.  Disable for the
        F6 ablation, which shows the residual 1/r error floor without it.
    """

    config: PhyConfig
    adaptive: bool = True
    states: ReflectionStates = field(default_factory=ReflectionStates)
    sync_threshold: float = 0.5
    self_compensation: bool = True

    def __post_init__(self) -> None:
        detector = EnvelopeDetector(
            sample_rate_hz=self.config.sample_rate_hz,
            smoothing_tau_seconds=self.config.smoothing_tau_s,
        )
        self._front_end = TagFrontEnd(detector=detector, states=self.states)

    @property
    def front_end(self) -> TagFrontEnd:
        """The analog front end (exposed for energy accounting)."""
        return self._front_end

    def envelope(
        self,
        incident: np.ndarray,
        own_chip_waveform: np.ndarray | None = None,
    ) -> np.ndarray:
        """Stage 1: smoothed detector output (with self-reception gating
        when the device is concurrently transmitting, and the known-state
        compensation that undoes it digitally)."""
        env = self._front_end.receive_envelope(incident, own_chip_waveform)
        if own_chip_waveform is not None and self.self_compensation:
            from repro.dsp.filters import alpha_for_time_constant
            from repro.fullduplex.selfinterference import compensate_envelope

            alpha = alpha_for_time_constant(
                self.config.smoothing_tau_s, self.config.sample_rate_hz
            )
            env = compensate_envelope(
                env, own_chip_waveform, self.states, smoothing_alpha=alpha
            )
        return env

    def soft_chips(self, envelope: np.ndarray, start_sample: int,
                   count: int) -> np.ndarray:
        """Stage 2: per-chip envelope integrals from a start offset."""
        if start_sample < 0:
            raise ValueError("start_sample must be non-negative")
        spc = self.config.samples_per_chip
        segment = np.asarray(envelope, dtype=float)[
            start_sample : start_sample + count * spc
        ]
        if segment.size < count * spc:
            return np.empty(0, dtype=float)
        return integrate_and_dump(segment, spc)

    def soft_decode_bits(self, soft_chips: np.ndarray,
                         polarity: int = 1) -> np.ndarray:
        """Stages 3–6 on one chip run: chip integrals → bits (see
        :func:`repro.phy.softdecode.soft_decode_bits_batch`).

        ``polarity`` is the reflect-raises-envelope sign resolved by the
        preamble correlator (see
        :class:`repro.phy.sync.SyncResult.polarity`); −1 flips the
        decision sense.
        """
        if polarity not in (1, -1):
            raise ValueError("polarity must be +1 or -1")
        soft = np.asarray(soft_chips, dtype=float)
        return soft_decode_bits_batch(
            soft[None], self.config, polarity, self.adaptive
        )[0]

    def receive_frame(
        self,
        incident: np.ndarray,
        own_chip_waveform: np.ndarray | None = None,
    ) -> ReceiveResult:
        """Full chain: incident complex samples → parsed frame."""
        env = self.envelope(incident, own_chip_waveform)
        sync = acquire_frame_start(env, self.config, self.sync_threshold)
        empty = np.empty(0, dtype=np.uint8)
        if not sync.found:
            return ReceiveResult(frame=None, crc_ok=False, sync=sync,
                                 body_bits=empty)
        cpb = self.config.chips_per_bit
        preamble_chips = default_preamble_bits(self.config.warmup_bits).size * cpb
        body_start = sync.start_sample + preamble_chips * self.config.samples_per_chip
        # Decode the length field first, then exactly the bits it implies.
        # The threshold is computed over the whole available chip run so
        # the comparator has context on both sides of each decision.
        max_chips = (env.size - body_start) // self.config.samples_per_chip
        header_chip_count = LENGTH_FIELD_BITS * cpb
        if max_chips < header_chip_count:
            return ReceiveResult(frame=None, crc_ok=False, sync=sync,
                                 body_bits=empty)
        soft = self.soft_chips(env, body_start, max_chips)
        header_bits = self.soft_decode_bits(soft[:header_chip_count],
                                            polarity=sync.polarity)
        length = 0
        for b in header_bits:
            length = (length << 1) | int(b)
        try:
            body_bit_count = body_bits_for_payload(length)
        except ValueError:
            return ReceiveResult(frame=None, crc_ok=False, sync=sync,
                                 body_bits=header_bits)
        if soft.size < body_bit_count * cpb:
            return ReceiveResult(frame=None, crc_ok=False, sync=sync,
                                 body_bits=header_bits)
        body_bits = self.soft_decode_bits(soft[: body_bit_count * cpb],
                                          polarity=sync.polarity)
        frame, ok = parse_frame(body_bits)
        return ReceiveResult(frame=frame, crc_ok=ok, sync=sync,
                             body_bits=body_bits)

    def decode_aligned_bits(
        self,
        incident: np.ndarray,
        num_bits: int,
        own_chip_waveform: np.ndarray | None = None,
        start_sample: int = 0,
        compensate_delay: bool = True,
        pilot_bits: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode ``num_bits`` with known alignment (no sync search).

        The raw-BER harness uses this: the trial controls timing, so sync
        errors are measured separately from chip errors.
        ``compensate_delay`` shifts the start by the detector's RC group
        delay, which callers quoting transmit-time offsets want.

        ``pilot_bits`` — a known prefix of the transmitted bits — lets
        the receiver resolve the backscatter polarity sign (see
        :class:`repro.phy.sync.SyncResult.polarity`); see
        :func:`repro.phy.softdecode.decode_aligned_batch`.
        """
        if compensate_delay:
            start_sample += self.config.detector_delay_samples
        env = self.envelope(incident, own_chip_waveform)
        return decode_aligned_batch(
            env[None], start_sample, num_bits, self.config, pilot_bits,
            self.adaptive,
        )[0]

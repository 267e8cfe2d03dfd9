"""Full-duplex exchanges of one link, N independent lanes at a time.

:class:`BatchFullDuplexEngine` is the one implementation of the
sample-level exchange.  :meth:`FullDuplexLink.run` and
:meth:`FullDuplexLink.run_raw_bits` call it with one lane; the
vectorized trial backend (:mod:`repro.experiments.batch`) calls it with
a whole chunk of trials.  Each stage of the exchange has one
implementation, chosen by one rule:

* a stage that has to run lane by lane anyway (random draws,
  data-dependent control flow: channel realisation, ambient and noise
  draws, preamble sync and frame parsing, the gated feedback half-bit
  means, harvesting) is a scalar function, and the engine loops over
  it;
* a stage that is plain 2-D numpy (chip and reflection waveforms,
  self-gating, envelope detection, compensation, aligned soft decode)
  takes ``(N, samples)`` arrays, and the scalar name calls it with one
  lane.

Randomness is never batched across lanes: lane ``i``'s generators are
spawned from its own seed in a fixed order, so a lane's outputs do not
depend on the rest of the batch.  A side of the exchange that the caller
does not ask for (``need_a`` / ``need_b``) is skipped entirely, which is
safe because each side's noise draws come from a dedicated child
generator and the decodes are deterministic given the staged fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.link import BatchLinkGains
from repro.fullduplex.feedback import FeedbackDecoder, feedback_waveform_batch
from repro.fullduplex.link import (
    DATA_PILOT_BITS,
    FEEDBACK_PILOT_BITS,
    FullDuplexLink,
)
from repro.phy import coding as lc
from repro.phy.framing import Frame
from repro.phy.receiver import BackscatterReceiver, ReceiveResult
from repro.phy.softdecode import decode_aligned_batch
from repro.phy.transmitter import BackscatterTransmitter
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass(frozen=True)
class StagedExchange:
    """Both antennas' fields for N exchanges, ready to decode.

    Attributes
    ----------
    pad:
        Idle guard length in samples on each side of the transmission.
    chips_a / chips_b:
        ``(N, total)`` switching waveforms of the two devices.
    fb_stream:
        ``(N, bits)`` feedback pilot + payload actually transmitted
        (zero columns when the window fits no feedback bit).
    incident_a / incident_b:
        ``(N, total)`` complex fields at each antenna (ambient + the
        *other* side's reflection + noise), or ``None`` when that side
        was not requested.
    """

    pad: int
    chips_a: np.ndarray
    chips_b: np.ndarray
    fb_stream: np.ndarray
    incident_a: np.ndarray | None
    incident_b: np.ndarray | None


@dataclass
class BatchFullDuplexEngine:
    """Runs one link's independent exchanges as stacked lanes.

    Attributes
    ----------
    link:
        The link whose exchanges run here (config, ambient source,
        impedance states, device names, pad).
    """

    link: FullDuplexLink

    def __post_init__(self) -> None:
        config = self.link.config
        self._rx_a = BackscatterReceiver(config.phy, states=self.link.states_a)
        self._rx_b = BackscatterReceiver(
            config.phy,
            states=self.link.states_b,
            self_compensation=config.self_compensation,
        )

    # -- staging -----------------------------------------------------------

    def stage(
        self,
        gains: BatchLinkGains,
        chip_waveforms: np.ndarray,
        feedback_bits: np.ndarray,
        feedback_enabled: bool,
        rngs,
        need_a: bool = True,
        need_b: bool = True,
    ) -> StagedExchange:
        """Compose both antennas' incident fields for N exchanges.

        Pads the window, builds both switching waveforms (A's data
        chips, B's pilot-prefixed feedback), turns them into reflection
        waveforms, draws the ambient block and mixes what each side's
        antenna sees.  Per lane, ``rngs[i]`` is split into (source,
        noise-A, noise-B) children.
        """
        link = self.link
        rng_src, rng_noise_a, rng_noise_b = [], [], []
        for rng in rngs:
            gen = ensure_rng(rng)
            src, noise_a, noise_b = spawn_rngs(gen, 3)
            rng_src.append(src)
            rng_noise_a.append(noise_a)
            rng_noise_b.append(noise_b)

        waves = np.asarray(chip_waveforms)
        if waves.ndim != 2:
            raise ValueError("chip_waveforms must be (lanes, samples)")
        lanes, num_samples = waves.shape
        config = link.config
        phy = config.phy
        pad = link.idle_pad_bits * phy.samples_per_bit
        total = num_samples + 2 * pad

        # A's switching waveform over the whole window (idle = absorbing).
        chips_a = np.zeros((lanes, total), dtype=np.uint8)
        chips_a[:, pad : pad + num_samples] = waves
        # A's reflection waveform is only consumed composing B's
        # incident field (and vice versa); skip the (lanes, total)
        # allocation when that side is not requested.
        gamma_a = (
            np.where(
                chips_a > 0,
                link.states_a.gamma_for(1),
                link.states_a.gamma_for(0),
            ).astype(float)
            if need_b
            else None
        )

        # B's feedback switching, aligned to the frame start.  A known
        # pilot prefix lets A resolve the feedback polarity sign.
        fb_payload = np.asarray(feedback_bits).astype(np.uint8)
        max_bits = num_samples // config.samples_per_feedback_bit
        pilot = FEEDBACK_PILOT_BITS
        if max_bits > pilot.size:
            keep = min(fb_payload.shape[1], max_bits - pilot.size)
            fb_stream = np.concatenate(
                [np.tile(pilot, (lanes, 1)), fb_payload[:, :keep]], axis=1
            )
        else:
            fb_stream = np.empty((lanes, 0), dtype=np.uint8)
        chips_b = np.zeros((lanes, total), dtype=np.uint8)
        if feedback_enabled and fb_stream.shape[1]:
            fb_wave = feedback_waveform_batch(fb_stream, config)
            chips_b[:, pad : pad + fb_wave.shape[1]] = fb_wave
        gamma_b = (
            np.where(
                chips_b > 0,
                link.states_b.gamma_for(1),
                link.states_b.gamma_for(0),
            ).astype(float)
            if need_a
            else None
        )

        ambient = link.source.batch_samples(total, rng_src)
        incident_b = (
            gains.received(
                link.device_b, ambient, {link.device_a: gamma_a},
                rngs=rng_noise_b,
            )
            if need_b
            else None
        )
        incident_a = (
            gains.received(
                link.device_a, ambient, {link.device_b: gamma_b},
                rngs=rng_noise_a,
            )
            if need_a
            else None
        )
        return StagedExchange(
            pad=pad,
            chips_a=chips_a,
            chips_b=chips_b,
            fb_stream=fb_stream,
            incident_a=incident_a,
            incident_b=incident_b,
        )

    def stage_frames(
        self,
        gains: BatchLinkGains,
        frames: list[Frame],
        feedback_bits: np.ndarray,
        rngs,
        feedback_enabled: bool = True,
        need_a: bool = True,
    ) -> StagedExchange:
        """:meth:`stage` for one data frame per lane (A transmits it)."""
        tx = BackscatterTransmitter(
            self.link.config.phy, states=self.link.states_a
        )
        waves = np.stack([tx.transmit(frame).chip_waveform for frame in frames])
        return self.stage(
            gains, waves, feedback_bits, feedback_enabled, rngs, need_a=need_a
        )

    # -- B: the data direction ---------------------------------------------

    def receive_frames(
        self, staged: StagedExchange, feedback_enabled: bool
    ) -> list[ReceiveResult]:
        """B's frame reception per lane (sync and parsing are
        data-dependent), gated by its own feedback transmission."""
        results = []
        for lane, incident in enumerate(staged.incident_b):
            own = staged.chips_b[lane] if feedback_enabled else None
            results.append(self._rx_b.receive_frame(incident, own))
        return results

    def decode_aligned_bits(
        self,
        staged: StagedExchange,
        num_bits: int,
        pilot_bits: np.ndarray,
        feedback_enabled: bool,
    ) -> np.ndarray:
        """B's raw-bit decode: known alignment, per-lane pilot polarity."""
        phy = self.link.config.phy
        own = staged.chips_b if feedback_enabled else None
        env = self._rx_b.envelope(staged.incident_b, own)
        return decode_aligned_batch(
            env, staged.pad + phy.detector_delay_samples, num_bits, phy,
            pilot_bits,
        )

    # -- A: the feedback direction -----------------------------------------

    def decode_feedback(
        self, staged: StagedExchange, feedback_enabled: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """A's feedback decode, gated by its own transmission.

        Returns ``(feedback_sent, feedback_decoded)`` as ``(N, bits)``
        arrays with the polarity pilot stripped (zero columns when no
        feedback flew).  The envelope is detected for every lane at
        once; the gated half-bit means run lane by lane because the
        gating mask depends on each lane's own data chips.
        """
        config = self.link.config
        pilot = FEEDBACK_PILOT_BITS
        lanes, num_bits = staged.fb_stream.shape
        if not (feedback_enabled and num_bits):
            empty = np.empty((lanes, 0), dtype=np.uint8)
            return empty, empty
        env = self._rx_a.front_end.receive_envelope(
            staged.incident_a, staged.chips_a
        )
        decoder = FeedbackDecoder(config)
        start = staged.pad + config.phy.detector_delay_samples
        decoded = np.empty((lanes, num_bits), dtype=np.uint8)
        for lane in range(lanes):
            decoded[lane] = decoder.decode(
                env[lane],
                num_bits=num_bits,
                own_chip_waveform=staged.chips_a[lane],
                start_sample=start,
                pilot_bits=pilot,
            )
        return staged.fb_stream[:, pilot.size :], decoded[:, pilot.size :]

    # -- both sides --------------------------------------------------------

    def harvested_energy(
        self, staged: StagedExchange
    ) -> tuple[list[float], list[float]]:
        """Per-lane energy [J] harvested by A and by B over the exchange."""
        front_a, front_b = self._rx_a.front_end, self._rx_b.front_end
        harvested_a = [
            front_a.harvested_energy(incident, chips)
            for incident, chips in zip(staged.incident_a, staged.chips_a)
        ]
        harvested_b = [
            front_b.harvested_energy(incident, chips)
            for incident, chips in zip(staged.incident_b, staged.chips_b)
        ]
        return harvested_a, harvested_b

    def raw_exchange(
        self,
        gains: BatchLinkGains,
        data_bits: np.ndarray,
        feedback_bits: np.ndarray,
        rngs,
        feedback_enabled: bool = True,
        need_data: bool = True,
        need_feedback: bool = True,
    ) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        """N unframed exchanges for BER sweeps: known alignment, no sync.

        A sends :data:`DATA_PILOT_BITS` followed by each lane's
        ``data_bits``; the pilot resolves the backscatter polarity at B.
        Returns ``(decoded_data, feedback_sent, feedback_decoded)`` as
        ``(N, bits)`` arrays, with ``None`` for a direction not asked
        for (its side is not staged).
        """
        phy = self.link.config.phy
        payload = np.asarray(data_bits).astype(np.uint8)
        pilot = DATA_PILOT_BITS
        stream = np.concatenate(
            [np.tile(pilot, (payload.shape[0], 1)), payload], axis=1
        )
        chips = lc.encode_batch(stream, phy.coding)
        waves = np.repeat(chips, phy.samples_per_chip, axis=1)
        staged = self.stage(
            gains, waves, feedback_bits, feedback_enabled, rngs,
            need_a=need_feedback, need_b=need_data,
        )
        decoded = None
        if need_data:
            decoded = self.decode_aligned_bits(
                staged, stream.shape[1], pilot, feedback_enabled
            )[:, pilot.size :]
        fb_sent = fb_decoded = None
        if need_feedback:
            fb_sent, fb_decoded = self.decode_feedback(
                staged, feedback_enabled
            )
        return decoded, fb_sent, fb_decoded

"""One simultaneous full-duplex exchange at the sample level.

:class:`FullDuplexLink` describes a (data-frame, feedback-stream)
exchange between two devices over one channel realisation:

1. A builds its data frame waveforms; B builds its feedback waveform,
   trimmed/padded to the frame duration.
2. The channel composes what each antenna sees — each side's received
   field contains the ambient direct path plus the *other* side's
   reflection (its own reflection acts through the front-end gating).
3. B runs the standard receive chain on the data (passing its own
   feedback waveform for self-gating and compensation); A runs the
   feedback decoder (gated by its own data waveform).
4. Both sides' harvested energy is accounted.

:meth:`FullDuplexLink.run` and :meth:`FullDuplexLink.run_raw_bits` run
that exchange as a batch of one lane through
:class:`repro.fullduplex.batch.BatchFullDuplexEngine`, the one
implementation every trial backend shares.

The result object carries everything the benchmarks need: the data
reception outcome, the decoded feedback bits, raw BER inputs, and the
energy tallies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ambient.sources import AmbientSource
from repro.channel.link import BatchLinkGains, LinkGains
from repro.fullduplex.config import FullDuplexConfig
from repro.hardware.reflection import ReflectionStates
from repro.phy.framing import Frame, build_frame
from repro.phy.receiver import ReceiveResult

#: Known data prefix used by the raw-bit harness to resolve backscatter
#: polarity at the receiver (see :class:`repro.phy.sync.SyncResult`).
DATA_PILOT_BITS = np.array([1, 0] * 8, dtype=np.uint8)

#: Known feedback prefix used by the transmitter to resolve polarity on
#: the feedback channel.
FEEDBACK_PILOT_BITS = np.array([1, 0], dtype=np.uint8)


@dataclass(frozen=True)
class FullDuplexExchange:
    """Outcome of one full-duplex exchange.

    Attributes
    ----------
    data_result:
        B's frame reception outcome.
    feedback_sent / feedback_decoded:
        The feedback bits B transmitted and A recovered (equal lengths).
    data_bits_sent:
        The exact over-the-air bits of A's frame (for raw BER checks).
    harvested_a_joule / harvested_b_joule:
        Energy each side harvested during the exchange.
    """

    data_result: ReceiveResult
    feedback_sent: np.ndarray
    feedback_decoded: np.ndarray
    data_bits_sent: np.ndarray
    harvested_a_joule: float
    harvested_b_joule: float

    @property
    def feedback_errors(self) -> int:
        """Number of feedback bits A decoded incorrectly."""
        return int(
            np.count_nonzero(self.feedback_sent != self.feedback_decoded)
        )

    @property
    def data_delivered(self) -> bool:
        """Whether B received the frame intact."""
        return self.data_result.delivered


@dataclass
class FullDuplexLink:
    """A ↔ B full-duplex link simulator.

    Attributes
    ----------
    config:
        Full-duplex parameters.
    source:
        Ambient excitation generator.
    states_a / states_b:
        Impedance states of each device (defaults shared).
    device_a / device_b:
        Scene node names of the two endpoints.
    idle_pad_bits:
        Quiet data-bit periods inserted before and after the frame (lets
        the receiver's windows settle and gives sync room to miss).
    """

    config: FullDuplexConfig
    source: AmbientSource
    states_a: ReflectionStates = field(default_factory=ReflectionStates)
    states_b: ReflectionStates = field(default_factory=ReflectionStates)
    device_a: str = "alice"
    device_b: str = "bob"
    idle_pad_bits: int = 4

    def _engine(self):
        # Imported here because the engine module builds on this one.
        from repro.fullduplex.batch import BatchFullDuplexEngine

        return BatchFullDuplexEngine(self)

    def run(
        self,
        gains: LinkGains,
        frame: Frame,
        feedback_bits: np.ndarray,
        rng=None,
        feedback_enabled: bool = True,
    ) -> FullDuplexExchange:
        """Simulate one exchange over a fixed channel realisation.

        Parameters
        ----------
        gains:
            One block's channel gains (from
            :meth:`repro.channel.link.ChannelModel.realize`).
        frame:
            The data frame A transmits.
        feedback_bits:
            The feedback stream B transmits; trimmed to what fits in the
            frame duration (see
            :func:`repro.fullduplex.feedback.feedback_bits_for_frame`).
        rng:
            Randomness for the ambient waveform and noise.
        feedback_enabled:
            With False, B stays silent — the half-duplex baseline used by
            the F1 benchmark's "feedback off" arm.
        """
        engine = self._engine()
        staged = engine.stage_frames(
            BatchLinkGains([gains]),
            [frame],
            np.asarray(feedback_bits)[None],
            [rng],
            feedback_enabled,
        )
        fb_sent, fb_decoded = engine.decode_feedback(staged, feedback_enabled)
        harvested_a, harvested_b = engine.harvested_energy(staged)
        return FullDuplexExchange(
            data_result=engine.receive_frames(staged, feedback_enabled)[0],
            feedback_sent=fb_sent[0],
            feedback_decoded=fb_decoded[0],
            data_bits_sent=build_frame(frame, self.config.phy.warmup_bits),
            harvested_a_joule=harvested_a[0],
            harvested_b_joule=harvested_b[0],
        )

    def run_raw_bits(
        self,
        gains: LinkGains,
        data_bits: np.ndarray,
        feedback_bits: np.ndarray,
        rng=None,
        feedback_enabled: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unframed exchange for BER sweeps: known alignment, no sync.

        Returns ``(decoded_data_bits, feedback_sent, feedback_decoded)``
        — the caller compares against its inputs.  Much faster than
        framed exchanges because there is no preamble search.
        """
        decoded, fb_sent, fb_decoded = self._engine().raw_exchange(
            BatchLinkGains([gains]),
            np.asarray(data_bits)[None],
            np.asarray(feedback_bits)[None],
            [rng],
            feedback_enabled,
        )
        return decoded[0], fb_sent[0], fb_decoded[0]

"""The low-rate feedback channel.

Encoding (at the data *receiver*, device B): each feedback bit is
Manchester-coded at ``1/r`` of the data rate — bit 1 reflects during the
first half and absorbs during the second, bit 0 the opposite.  Manchester
keeps the feedback DC-balanced, so B's slow switching averages out of A's
(and any third party's) data-band receive chains.

Decoding (at the data *transmitter*, device A): A integrates its detector
output over each feedback half-bit and compares the two halves — the same
differential trick as the data channel, but with ``r/2`` data-bit periods
of averaging per half, which is where the feedback channel's robustness
comes from.  In ``"gated"`` mode A uses only the samples where its own
modulator is absorbing, sidestepping its own (much stronger and perfectly
known) transmission entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fullduplex.config import FullDuplexConfig
from repro.fullduplex.selfinterference import own_off_mask
from repro.phy import coding as lc


def feedback_bits_for_frame(frame_samples: int, config: FullDuplexConfig) -> int:
    """Feedback bits that fit alongside a data transmission of
    ``frame_samples`` samples (the last partial bit is dropped — a
    partial feedback bit cannot be decoded)."""
    if frame_samples < 0:
        raise ValueError("frame_samples must be non-negative")
    return frame_samples // config.samples_per_feedback_bit


def feedback_waveform(bits: np.ndarray, config: FullDuplexConfig) -> np.ndarray:
    """Feedback bit array → 0/1 switching waveform at the sample rate.

    Manchester at the feedback scale: bit 1 → reflect-then-absorb,
    bit 0 → absorb-then-reflect, each half ``r/2`` data bits long.
    """
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("bits must be a 1-D array")
    return feedback_waveform_batch(arr[None], config)[0]


def feedback_waveform_batch(
    bits: np.ndarray, config: FullDuplexConfig
) -> np.ndarray:
    """``(N, bits)`` feedback bits → ``(N, samples)`` switching waveforms.

    The feedback line code *is* Manchester at the feedback half-bit
    scale (bit 1 → reflect-then-absorb), so the chips come from the one
    module that owns that rule.
    """
    chips = lc.encode_batch(bits, "manchester")
    return np.repeat(chips, config.samples_per_feedback_half, axis=1)


@dataclass
class FeedbackDecoder:
    """Feedback demodulator at the data transmitter.

    Attributes
    ----------
    config:
        Full-duplex parameters (asymmetry ratio, decode mode).
    """

    config: FullDuplexConfig

    def half_means(
        self,
        envelope: np.ndarray,
        num_bits: int,
        own_chip_waveform: np.ndarray | None = None,
        start_sample: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-feedback-bit (first-half, second-half) gated envelope means
        — the decoder's soft decision variables."""
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        env = np.asarray(envelope, dtype=float)
        if start_sample < 0:
            raise ValueError("start_sample must be non-negative")
        half = self.config.samples_per_feedback_half
        needed = start_sample + num_bits * 2 * half
        if env.size < needed:
            raise ValueError(
                f"envelope too short: need {needed} samples, have {env.size}"
            )
        if self.config.feedback_decode == "gated":
            if own_chip_waveform is None:
                raise ValueError('"gated" decode requires own_chip_waveform')
            mask = own_off_mask(own_chip_waveform)
            if mask.shape != env.shape:
                raise ValueError(
                    "own chip waveform length must match the envelope"
                )
        else:
            mask = np.ones(env.size, dtype=bool)
        firsts = np.empty(num_bits, dtype=float)
        seconds = np.empty(num_bits, dtype=float)
        for i in range(num_bits):
            h1 = slice(start_sample + i * 2 * half,
                       start_sample + i * 2 * half + half)
            h2 = slice(h1.stop, h1.stop + half)
            firsts[i] = _masked_mean(env[h1], mask[h1])
            seconds[i] = _masked_mean(env[h2], mask[h2])
        return firsts, seconds

    def decode(
        self,
        envelope: np.ndarray,
        num_bits: int,
        own_chip_waveform: np.ndarray | None = None,
        start_sample: int = 0,
        pilot_bits: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode ``num_bits`` feedback bits from a detector envelope.

        Parameters
        ----------
        envelope:
            A's detector output over the exchange (already including A's
            own self-gating, which ``"gated"`` mode masks out).
        num_bits:
            Feedback bits to decode.
        own_chip_waveform:
            A's own transmit chips at sample rate; required for
            ``"gated"`` mode, optional for ``"raw"``.
        start_sample:
            Sample where the feedback stream begins (A aligns it to its
            own frame start, which it trivially knows).
        pilot_bits:
            Known prefix of the feedback stream used to resolve the
            backscatter polarity sign (reflect may *lower* A's envelope
            when the dyadic path adds destructively — the same physics
            as :class:`repro.phy.sync.SyncResult.polarity`).  Without a
            pilot, positive polarity is assumed.
        """
        firsts, seconds = self.half_means(
            envelope, num_bits, own_chip_waveform, start_sample
        )
        positive = (firsts > seconds).astype(np.uint8)
        if pilot_bits is None:
            return positive
        pilot = np.asarray(pilot_bits).astype(np.uint8)
        if pilot.size == 0 or pilot.size > num_bits:
            raise ValueError("pilot must be a non-empty prefix of the bits")
        # Matched-filter polarity decision: correlate the soft margins of
        # the pilot slots against the known pilot signs.  Soft beats
        # hard-bit voting for short pilots (no ties, weights strong slots
        # more).
        margins = (firsts - seconds)[: pilot.size]
        signs = pilot.astype(float) * 2.0 - 1.0
        score = float(np.dot(margins, signs))
        if score >= 0:
            return positive
        return (1 - positive).astype(np.uint8)

    def soft_margins(
        self,
        envelope: np.ndarray,
        num_bits: int,
        own_chip_waveform: np.ndarray | None = None,
        start_sample: int = 0,
    ) -> np.ndarray:
        """Per-bit normalised decision margins ``(h1 - h2) / mean`` —
        diagnostics for the asymmetry-ratio bench (F3)."""
        env = np.asarray(envelope, dtype=float)
        overall = env.mean() if env.size else 1.0
        firsts, seconds = self.half_means(
            env, num_bits, own_chip_waveform, start_sample
        )
        if not overall:
            return np.zeros(num_bits, dtype=float)
        return (firsts - seconds) / overall


def _masked_mean(values: np.ndarray, mask: np.ndarray) -> float:
    """Mean over masked-in samples; falls back to the plain mean when the
    mask empties the window (own modulator on for the whole half — only
    possible in pathological configs)."""
    selected = values[mask]
    if selected.size == 0:
        return float(values.mean()) if values.size else 0.0
    return float(selected.mean())

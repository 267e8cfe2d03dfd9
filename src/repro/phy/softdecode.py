"""Soft-decision decoding of per-chip envelope integrals, N lanes at once.

These functions are the one implementation of the receiver's decision
rules.  They take ``(N, chips)`` (or ``(N, samples)``) arrays; the
scalar methods of :class:`repro.phy.receiver.BackscatterReceiver` call
them with one lane, and the batched trial engine
(:mod:`repro.fullduplex.batch`) with a whole chunk:

* :func:`soft_decode_bits_batch` — differential Manchester, thresholded
  FM0/NRZ (behind ``BackscatterReceiver.soft_decode_bits``);
* :func:`resolve_polarity_batch` — the pilot-driven polarity search;
* :func:`decode_aligned_batch` — known-alignment slicing, chip
  integration, polarity and decode (behind
  ``BackscatterReceiver.decode_aligned_bits``).

Every per-lane reduction that could depend on the batch shape (the
pilot matched filter) runs lane by lane, so a lane's result does not
depend on what else is in the batch.  The hard-chip path models the
receiver's zero-hysteresis comparator.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.filters import integrate_and_dump, moving_average
from repro.phy import coding as lc
from repro.phy.config import PhyConfig


def _as_soft_batch(soft_chips) -> np.ndarray:
    soft = np.asarray(soft_chips, dtype=float)
    if soft.ndim != 2:
        raise ValueError("soft chips must be a 2-D (lanes, chips) array")
    return soft


def _as_polarity(polarity, lanes: int) -> np.ndarray:
    pol = np.broadcast_to(np.asarray(polarity, dtype=np.int64), (lanes,))
    if not np.all((pol == 1) | (pol == -1)):
        raise ValueError("polarity must be +1 or -1 per lane")
    return pol


def chip_threshold_batch(
    soft_chips: np.ndarray, config: PhyConfig, adaptive: bool = True
) -> np.ndarray:
    """Per-lane comparator threshold over chip integrals.

    A causal moving average over ``threshold_window_bits`` of chips (or
    each lane's whole run mean for the fixed-threshold ablation).
    """
    soft = _as_soft_batch(soft_chips)
    window_chips = config.threshold_window_bits * config.chips_per_bit
    if adaptive:
        return moving_average(soft, window_chips)
    means = np.array([float(np.mean(row)) for row in soft])
    return np.broadcast_to(means[:, None], soft.shape).astype(float)


def hard_chips_batch(
    soft_chips: np.ndarray, config: PhyConfig, adaptive: bool = True
) -> np.ndarray:
    """Threshold + zero-hysteresis comparator → hard chips per lane."""
    soft = _as_soft_batch(soft_chips)
    thr = chip_threshold_batch(soft, config, adaptive)
    return (soft > thr).astype(np.uint8)


def soft_decode_bits_batch(
    soft_chips: np.ndarray,
    config: PhyConfig,
    polarity=1,
    adaptive: bool = True,
) -> np.ndarray:
    """Chip integrals → bits for every lane at once.

    ``polarity`` is a scalar or per-lane array of ±1 (the sign resolved
    by each lane's pilot, see :func:`resolve_polarity_batch`).
    Manchester decodes *differentially* — each bit compares its two
    half-bit integrals directly, cancelling the threshold and any slow
    envelope drift.  FM0/NRZ go through the threshold + comparator path,
    with negative-polarity lanes' hard chips inverted before line
    decoding (FM0 is transition-coded and therefore polarity-invariant
    by construction).
    """
    soft = _as_soft_batch(soft_chips)
    pol = _as_polarity(polarity, soft.shape[0])
    if config.coding == "manchester":
        if soft.shape[1] % 2:
            raise ValueError(
                "Manchester soft decode needs an even number of chips"
            )
        first, second = soft[:, 0::2], soft[:, 1::2]
        positive = first > second
        negative = first < second
        return np.where(pol[:, None] > 0, positive, negative).astype(np.uint8)
    hard = hard_chips_batch(soft, config, adaptive)
    hard = np.where(pol[:, None] < 0, 1 - hard, hard).astype(np.uint8)
    return lc.decode(hard.reshape(-1), config.coding).reshape(
        hard.shape[0], -1
    )


def resolve_polarity_batch(
    soft_chips: np.ndarray,
    pilot_bits: np.ndarray,
    config: PhyConfig,
    adaptive: bool = True,
) -> np.ndarray:
    """Per-lane backscatter polarity from a known pilot prefix.

    Manchester lanes correlate the pilot's soft half-differences against
    the known pilot signs (matched filter); other codings decode the
    pilot at both polarities and keep the one with fewer pilot errors,
    preferring +1 on ties.
    """
    soft = _as_soft_batch(soft_chips)
    pilot = np.asarray(pilot_bits).astype(np.uint8)
    if pilot.size == 0:
        raise ValueError("pilot must be non-empty")
    pilot_chips = pilot.size * config.chips_per_bit
    if soft.shape[1] < pilot_chips:
        raise ValueError("soft chip run shorter than the pilot")
    signs = pilot.astype(float) * 2.0 - 1.0
    lanes = soft.shape[0]
    polarity = np.ones(lanes, dtype=np.int64)
    if config.coding == "manchester":
        head = soft[:, :pilot_chips]
        margins = head[:, 0::2] - head[:, 1::2]
        for lane in range(lanes):
            # Per-lane np.dot keeps a lane's accumulation order
            # independent of the batch (a batched gemv may not).
            if float(np.dot(margins[lane], signs)) < 0:
                polarity[lane] = -1
        return polarity
    head = soft[:, :pilot_chips]
    errors_by_pol = {}
    for pol in (1, -1):
        decoded = soft_decode_bits_batch(head, config, pol, adaptive)
        errors_by_pol[pol] = np.count_nonzero(decoded != pilot, axis=1)
    flip = errors_by_pol[-1] < errors_by_pol[1]
    polarity[flip] = -1
    return polarity


def decode_aligned_batch(
    envelope: np.ndarray,
    start_sample: int,
    num_bits: int,
    config: PhyConfig,
    pilot_bits: np.ndarray | None = None,
    adaptive: bool = True,
) -> np.ndarray:
    """Decode ``num_bits`` per lane from ``(N, samples)`` detector
    envelopes with known alignment (no sync search).

    Integrates one chip period at a time from ``start_sample``, resolves
    each lane's polarity from ``pilot_bits`` (a known prefix of the
    bits; without one positive polarity is assumed, which is correct for
    static co-phased channels only) and decodes.
    """
    if num_bits < 0:
        raise ValueError("num_bits must be non-negative")
    if start_sample < 0:
        raise ValueError("start_sample must be non-negative")
    env = np.asarray(envelope, dtype=float)
    if env.ndim != 2:
        raise ValueError("envelope must be a 2-D (lanes, samples) array")
    span = num_bits * config.chips_per_bit * config.samples_per_chip
    segment = env[:, start_sample : start_sample + span]
    if segment.shape[1] < span:
        raise ValueError(
            "incident waveform too short for the requested bit count"
        )
    soft = integrate_and_dump(segment, config.samples_per_chip)
    if pilot_bits is None:
        return soft_decode_bits_batch(soft, config, 1, adaptive)
    pilot = np.asarray(pilot_bits).astype(np.uint8)
    if pilot.size == 0 or pilot.size > num_bits:
        raise ValueError("pilot must be a non-empty prefix of the bits")
    polarity = resolve_polarity_batch(soft, pilot, config, adaptive)
    return soft_decode_bits_batch(soft, config, polarity, adaptive)

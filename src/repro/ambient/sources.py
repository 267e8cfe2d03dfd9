"""Synthetic ambient-RF source models.

The paper's prototype rides on a 539 MHz TV broadcast.  What the envelope-
detecting receiver cares about is not the broadcast's content but its
short-window envelope statistics: a digital TV multiplex is, to an
excellent approximation, band-limited complex Gaussian noise (many
independent OFDM subcarriers), so its envelope is Rayleigh and its power
decorrelates on the scale of ``1 / bandwidth``.  The sources below
reproduce exactly those statistics.

Every source emits complex baseband samples with **unit mean power**; the
channel layer scales by transmit power and path loss.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_in_range, check_positive


class AmbientSource(ABC):
    """Interface for ambient excitation generators.

    Implementations are stateless with respect to the waveform: each call
    to :meth:`samples` draws a fresh, independent realisation (block
    fading and Monte-Carlo trials rely on this).
    """

    #: Simulation sample rate the waveform is generated at [Hz].
    sample_rate_hz: float

    @abstractmethod
    def samples(self, count: int, rng=None) -> np.ndarray:
        """Return ``count`` complex baseband samples with unit mean power."""

    def batch_samples(self, count: int, rngs) -> np.ndarray:
        """One realisation per generator, stacked into ``(len(rngs), count)``.

        Row ``i`` is **bitwise identical** to ``samples(count, rngs[i])``
        — the contract the batched trial engine depends on.  The base
        implementation fills a preallocated array with one
        :meth:`samples` call per lane.
        """
        rngs = list(rngs)
        out = np.empty((len(rngs), max(int(count), 0)), dtype=complex)
        for lane, rng in enumerate(rngs):
            out[lane] = self.samples(count, rng)
        return out

@functools.lru_cache(maxsize=4)
def _phase_matrix_for(
    n: int, sample_rate_hz: float, bandwidth_hz: float, subcarriers: int
) -> np.ndarray:
    """The ``(n, subcarriers)`` tone matrix ``exp(2jπ t ⊗ f)``.

    Cached at module level and shared across source instances: every
    sweep point builds a fresh source, but the matrix depends only on
    the arguments, so caching it per instance would pin one ~n×S complex
    copy per point for the process lifetime.  A handful of entries
    covers the distinct waveform lengths (data vs frame exchanges) while
    bounding memory.  The matrix is read-only because every caller
    shares it.
    """
    freqs = np.linspace(-bandwidth_hz / 2, bandwidth_hz / 2, subcarriers)
    t = np.arange(n) / sample_rate_hz
    matrix = np.exp(2j * np.pi * np.outer(t, freqs))
    matrix.flags.writeable = False
    return matrix


@dataclass
class OfdmLikeSource(AmbientSource):
    """Gaussian multicarrier source — the TV-broadcast stand-in.

    A sum of ``subcarriers`` independently QPSK/Gaussian-modulated tones
    spread uniformly over ``bandwidth_hz`` converges (already for a few
    tens of subcarriers) to band-limited complex Gaussian noise, matching
    the measured statistics of DVB-T/ATSC signals.

    Attributes
    ----------
    sample_rate_hz:
        Simulation sample rate; must be at least the bandwidth.
    bandwidth_hz:
        Occupied bandwidth (6 MHz for ATSC; scaled down in simulation so
        that a bit period still spans many envelope coherence intervals).
    subcarriers:
        Number of modelled subcarriers.  This also sets the chip-mean
        residual fluctuation the receiver integrates against: cross-terms
        between subcarriers closer than ``1/T_chip`` survive chip
        averaging.  The default (32 over the default bandwidth) is
        calibrated so the per-chip residual matches the large
        bandwidth×time product of a real 6 MHz TV mux at 1 kbps — see
        DESIGN.md's substitution table.
    """

    sample_rate_hz: float
    bandwidth_hz: float
    subcarriers: int = 32

    def __post_init__(self) -> None:
        check_positive("sample_rate_hz", self.sample_rate_hz)
        check_positive("bandwidth_hz", self.bandwidth_hz)
        check_positive("subcarriers", self.subcarriers)
        if self.bandwidth_hz > self.sample_rate_hz:
            raise ValueError(
                "bandwidth_hz must not exceed sample_rate_hz "
                f"({self.bandwidth_hz} > {self.sample_rate_hz})"
            )

    def samples(self, count: int, rng=None) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        gen = ensure_rng(rng)
        n = int(count)
        if n == 0:
            return np.empty(0, dtype=complex)
        # Subcarrier frequencies uniform in [-B/2, B/2]; each carries a
        # complex Gaussian symbol stream held for the whole block (the
        # block is far shorter than an OFDM symbol at simulation scale).
        # The seed-independent tone matrix comes from the bounded
        # module-level cache, so only the draw and the product are paid
        # per call.
        phase = _phase_matrix_for(
            n, self.sample_rate_hz, self.bandwidth_hz, self.subcarriers
        )
        coeff = (
            gen.standard_normal(self.subcarriers)
            + 1j * gen.standard_normal(self.subcarriers)
        ) / np.sqrt(2 * self.subcarriers)
        wave = phase @ coeff
        # Normalise the realised block to unit mean power so trials do not
        # inherit the chi-square spread of the subcarrier draw.
        power = np.mean((wave * wave.conj()).real)
        if power > 0:
            wave /= np.sqrt(power)
        return wave

    def batch_samples(self, count: int, rngs) -> np.ndarray:
        """Per-lane :meth:`samples` calls into one preallocated array;
        every lane reads the same cached tone matrix.  Defined on the
        class so ``perfbench/layers.py`` can trace it by name."""
        return super().batch_samples(count, rngs)


@dataclass
class ToneSource(AmbientSource):
    """Constant-envelope illuminator (RFID-reader-like carrier).

    A single tone at ``offset_hz`` from the carrier with an optional random
    phase per realisation.  Its envelope never fluctuates, so it isolates
    receiver behaviour from ambient-envelope noise — the best case the
    paper contrasts TV signals against.
    """

    sample_rate_hz: float
    offset_hz: float = 0.0
    random_phase: bool = True

    def __post_init__(self) -> None:
        check_positive("sample_rate_hz", self.sample_rate_hz)
        check_in_range(
            "offset_hz", abs(self.offset_hz), 0.0, self.sample_rate_hz / 2
        )

    def samples(self, count: int, rng=None) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        gen = ensure_rng(rng)
        n = int(count)
        phase = gen.uniform(0, 2 * np.pi) if self.random_phase else 0.0
        t = np.arange(n) / self.sample_rate_hz
        return np.exp(1j * (2 * np.pi * self.offset_hz * t + phase))


@dataclass
class FilteredNoiseSource(AmbientSource):
    """Band-limited complex Gaussian noise with tunable coherence.

    Generated by moving-average filtering white complex Gaussian noise;
    the envelope coherence time is ``coherence_samples / sample_rate_hz``.
    Used to stress the receiver's averaging windows with slowly-fluctuating
    ambient signals (narrow-band FM radio instead of wide-band TV).
    """

    sample_rate_hz: float
    coherence_samples: int = 4
    _kernel: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive("sample_rate_hz", self.sample_rate_hz)
        check_positive("coherence_samples", self.coherence_samples)
        kernel = np.ones(int(self.coherence_samples))
        self._kernel = kernel / np.sqrt(kernel.size)

    def samples(self, count: int, rng=None) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        gen = ensure_rng(rng)
        n = int(count)
        if n == 0:
            return np.empty(0, dtype=complex)
        pad = self._kernel.size - 1
        white = (
            gen.standard_normal(n + pad) + 1j * gen.standard_normal(n + pad)
        ) / np.sqrt(2)
        wave = np.convolve(white, self._kernel, mode="valid")
        power = np.mean((wave * wave.conj()).real)
        if power > 0:
            wave /= np.sqrt(power)
        return wave

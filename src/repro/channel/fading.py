"""Small-scale block-fading models.

Channels are constant within a packet (block fading) and i.i.d. across
Monte-Carlo trials.  Each model draws a unit-mean-power complex gain ``h``
(``E[|h|^2] = 1``) that multiplies the path-loss amplitude.

* :class:`NoFading` — static channels (fixed deployment, no mobility);
* :class:`RayleighFading` — rich scattering, no line of sight;
* :class:`RicianFading` — a dominant line-of-sight component plus
  scatter, parameterised by the K-factor.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative


class BlockFading(ABC):
    """Per-block complex gain generator with ``E[|h|^2] = 1``."""

    @abstractmethod
    def sample(self, rng=None) -> complex:
        """Draw one block's complex channel gain."""


@dataclass(frozen=True)
class NoFading(BlockFading):
    """Deterministic unit gain with an optional fixed phase."""

    phase_rad: float = 0.0

    def sample(self, rng=None) -> complex:
        return complex(math.cos(self.phase_rad), math.sin(self.phase_rad))


@dataclass(frozen=True)
class RayleighFading(BlockFading):
    """Zero-mean complex Gaussian gain (Rayleigh envelope)."""

    def sample(self, rng=None) -> complex:
        gen = ensure_rng(rng)
        re, im = gen.standard_normal(2) / math.sqrt(2)
        return complex(re, im)


@dataclass(frozen=True)
class RicianFading(BlockFading):
    """Line-of-sight plus scatter; ``k_factor`` is the LOS/scatter power
    ratio (linear).  ``k_factor = 0`` reduces to Rayleigh; large K
    approaches the static channel."""

    k_factor: float = 4.0

    def __post_init__(self) -> None:
        check_non_negative("k_factor", self.k_factor)

    def sample(self, rng=None) -> complex:
        gen = ensure_rng(rng)
        k = self.k_factor
        los = math.sqrt(k / (k + 1.0))
        sigma = math.sqrt(1.0 / (2.0 * (k + 1.0)))
        re, im = gen.standard_normal(2) * sigma
        phase = gen.uniform(0, 2 * math.pi)
        return complex(los * math.cos(phase) + re, los * math.sin(phase) + im)


def make_fading(kind: str, **kwargs) -> BlockFading:
    """Factory keyed by name: ``"static"``, ``"rayleigh"`` or ``"rician"``."""
    kinds = {
        "static": NoFading,
        "rayleigh": RayleighFading,
        "rician": RicianFading,
    }
    if kind not in kinds:
        raise ValueError(f"unknown fading kind {kind!r}; choose from {sorted(kinds)}")
    return kinds[kind](**kwargs)

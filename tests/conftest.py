"""Shared fixtures.

Two simulation profiles:

* ``fast_phy`` — 16 samples/chip, used by tests that need sample-level
  chains but not statistical depth;
* deterministic links built on :class:`ToneSource` with zero noise, for
  exact (non-statistical) end-to-end assertions.

Campaign-layer tests share ``bernoulli_kind``: a fake trial kind whose
trial is one coin flip, so a grid of thousands of units runs in seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.experiments as experiments
from repro.ambient import OfdmLikeSource, ToneSource
from repro.campaigns.adaptive import WILSON_COUNTS, _ratio_counts
from repro.channel import ChannelModel, Scene
from repro.experiments.runner import ber_aggregate
from repro.phy import PhyConfig


@pytest.fixture
def rng():
    """Deterministic per-test generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def fast_phy() -> PhyConfig:
    """Small sample-per-chip PHY for cheap sample-level tests."""
    return PhyConfig(sample_rate_hz=32_000.0, bit_rate_bps=1_000.0)


@pytest.fixture
def default_phy() -> PhyConfig:
    """The calibrated default operating point."""
    return PhyConfig()


@pytest.fixture
def two_device_scene() -> Scene:
    """Canonical two-tag topology at 0.5 m separation."""
    return Scene.two_device_line(device_separation_m=0.5)


@pytest.fixture
def quiet_channel() -> ChannelModel:
    """Noise-free channel for deterministic decode tests."""
    return ChannelModel(noise_power_watt=0.0)


@pytest.fixture
def default_channel() -> ChannelModel:
    """Default channel (thermal noise, static fading)."""
    return ChannelModel()


@pytest.fixture
def tone_source(fast_phy) -> ToneSource:
    """Constant-envelope source at the fast PHY rate (deterministic)."""
    return ToneSource(sample_rate_hz=fast_phy.sample_rate_hz,
                      random_phase=False)


@pytest.fixture
def ofdm_source(default_phy) -> OfdmLikeSource:
    """Calibrated TV-like source at the default PHY rate."""
    return OfdmLikeSource(sample_rate_hz=default_phy.sample_rate_hz,
                          bandwidth_hz=200e3)


def bernoulli_trial(spec, rng) -> dict:
    """One Bernoulli draw; ``mac_loss_probability`` is the knob."""
    return {
        "errors": int(rng.random() < spec.mac_loss_probability),
        "bits": 1,
    }


@pytest.fixture
def bernoulli_kind(monkeypatch):
    """Register the microsecond-cheap ``bernoulli-test`` trial kind."""
    monkeypatch.setitem(
        experiments.TRIAL_KINDS, "bernoulli-test", bernoulli_trial
    )
    monkeypatch.setitem(
        experiments.TRIAL_AGGREGATES, "bernoulli-test", ber_aggregate
    )
    monkeypatch.setitem(
        WILSON_COUNTS, "bernoulli-test", _ratio_counts("errors", "bits")
    )
    return "bernoulli-test"

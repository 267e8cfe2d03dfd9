"""Declarative scenario description → fully wired simulation stack.

:class:`ScenarioSpec` is one flat, frozen record of every knob a
deployment scene exposes: the ambient excitation, the PHY operating
point, the full-duplex parameters, the propagation environment, the
geometry, and the MAC workload.  ``spec.build()`` turns it into the
stack every measurement consumes; ``to_dict``/``from_dict`` round-trip
it through plain JSON so scenario files, CLI flags and registry presets
all speak the same schema.

Keeping every field a scalar does two jobs: the spec stays hashable
(worker processes cache built stacks per spec) and the JSON form stays
a flat, diffable document.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields

from repro.ambient.sources import (
    AmbientSource,
    FilteredNoiseSource,
    OfdmLikeSource,
    ToneSource,
)
from repro.channel.fading import make_fading
from repro.channel.geometry import Scene
from repro.channel.link import ChannelModel
from repro.channel.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PathLossModel,
    TwoRayGroundPathLoss,
)
from repro.fullduplex.config import FullDuplexConfig
from repro.fullduplex.link import FullDuplexLink
from repro.phy.config import PhyConfig
from repro.utils.validation import check_positive

#: Path-loss model kinds accepted by :attr:`ScenarioSpec.source_pathloss`
#: and :attr:`ScenarioSpec.device_pathloss`.
PATHLOSS_KINDS = ("free-space", "log-distance", "two-ray")

#: Ambient source kinds accepted by :attr:`ScenarioSpec.source_kind`.
SOURCE_KINDS = ("ofdm", "tone", "noise")

#: Fading kinds accepted by the two fading fields.
FADING_KINDS = ("static", "rayleigh", "rician")

#: Link-layer policy arms accepted by :attr:`ScenarioSpec.mac_policy`
#: (see :mod:`repro.experiments.mac` for the arm → policy wiring).
MAC_POLICY_KINDS = ("no-arq", "hd-arq", "fd-abort", "fd-resume")


def _make_pathloss(kind: str, exponent: float) -> PathLossModel:
    if kind == "free-space":
        return FreeSpacePathLoss()
    if kind == "log-distance":
        return LogDistancePathLoss(exponent=exponent)
    if kind == "two-ray":
        return TwoRayGroundPathLoss()
    raise ValueError(
        f"unknown pathloss kind {kind!r}; choose from {sorted(PATHLOSS_KINDS)}"
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One deployment scenario, declaratively.

    Attributes
    ----------
    name / description:
        Identification, carried into result metadata and reports.
    source_kind:
        Ambient excitation: ``"ofdm"`` (TV-mux-like), ``"tone"``
        (RFID-reader-like carrier) or ``"noise"`` (band-limited noise
        with tunable coherence).
    source_bandwidth_hz:
        Occupied bandwidth of the OFDM-like source.
    source_subcarriers:
        Subcarrier count of the OFDM-like source (calibration dial).
    source_coherence_samples:
        Envelope coherence of the ``"noise"`` source.
    sample_rate_hz / bit_rate_bps / coding:
        PHY operating point (see :class:`repro.phy.config.PhyConfig`).
    asymmetry_ratio / feedback_decode / self_compensation:
        Full-duplex knobs (see
        :class:`repro.fullduplex.config.FullDuplexConfig`).
    source_pathloss / source_pathloss_exponent:
        Large-scale model of the broadcast path; the exponent applies to
        the log-distance model only.
    device_pathloss / device_pathloss_exponent:
        Large-scale model of the tag-to-tag path (exponent likewise
        log-distance-only).
    device_fading / fading_k_factor:
        Small-scale fading of the tag-to-tag path; the K-factor applies
        to Rician only.
    source_power_watt / noise_power_watt:
        Link-budget anchors (ambient EIRP, front-end noise).
    distance_m / source_distance_m:
        Geometry of the canonical two-device line scene.
    mac_num_links / mac_arrival_rate_pps / mac_payload_bytes /
    mac_loss_probability / mac_horizon_seconds / mac_load_asymmetry:
        Protocol-simulator workload (see
        :class:`repro.mac.simulator.SimulationConfig`).
    mac_policy:
        Link-layer policy arm a MAC trial runs (``"no-arq"``,
        ``"hd-arq"``, ``"fd-abort"`` or ``"fd-resume"``); the
        full-duplex arms inherit :attr:`asymmetry_ratio`.
    mac_detection_latency_bits / mac_max_retries:
        Policy knobs: in-reception detector latency of the full-duplex
        arms, and the retry budget of every ARQ arm (``"no-arq"`` never
        retries regardless).
    """

    name: str = "custom"
    description: str = ""
    # -- ambient excitation ------------------------------------------------
    source_kind: str = "ofdm"
    source_bandwidth_hz: float = 200e3
    source_subcarriers: int = 32
    source_coherence_samples: int = 4
    # -- PHY ---------------------------------------------------------------
    sample_rate_hz: float = 256_000.0
    bit_rate_bps: float = 1_000.0
    coding: str = "manchester"
    # -- full duplex -------------------------------------------------------
    asymmetry_ratio: int = 64
    feedback_decode: str = "gated"
    self_compensation: bool = True
    # -- propagation -------------------------------------------------------
    source_pathloss: str = "log-distance"
    source_pathloss_exponent: float = 2.4
    device_pathloss: str = "free-space"
    device_pathloss_exponent: float = 2.7
    device_fading: str = "static"
    fading_k_factor: float = 4.0
    source_power_watt: float = 1.0e3
    noise_power_watt: float = 1.0e-13
    # -- geometry ----------------------------------------------------------
    distance_m: float = 0.5
    source_distance_m: float = 1000.0
    # -- MAC workload ------------------------------------------------------
    mac_num_links: int = 8
    mac_arrival_rate_pps: float = 0.3
    mac_payload_bytes: int = 64
    mac_loss_probability: float = 0.1
    mac_horizon_seconds: float = 120.0
    mac_load_asymmetry: float = 1.0
    mac_policy: str = "fd-abort"
    mac_detection_latency_bits: int = 8
    mac_max_retries: int = 5

    def __post_init__(self) -> None:
        if self.source_kind not in SOURCE_KINDS:
            raise ValueError(
                f"unknown source kind {self.source_kind!r}; "
                f"choose from {sorted(SOURCE_KINDS)}"
            )
        for attr in ("source_pathloss", "device_pathloss"):
            if getattr(self, attr) not in PATHLOSS_KINDS:
                raise ValueError(
                    f"unknown {attr} {getattr(self, attr)!r}; "
                    f"choose from {sorted(PATHLOSS_KINDS)}"
                )
        if self.device_fading not in FADING_KINDS:
            raise ValueError(
                f"unknown device_fading {self.device_fading!r}; "
                f"choose from {sorted(FADING_KINDS)}"
            )
        check_positive("distance_m", self.distance_m)
        check_positive("source_distance_m", self.source_distance_m)
        if not 0.0 <= self.mac_loss_probability <= 1.0:
            raise ValueError("mac_loss_probability must be in [0, 1]")
        check_positive("mac_num_links", self.mac_num_links)
        check_positive("mac_arrival_rate_pps", self.mac_arrival_rate_pps)
        check_positive("mac_payload_bytes", self.mac_payload_bytes)
        check_positive("mac_horizon_seconds", self.mac_horizon_seconds)
        if self.mac_load_asymmetry < 1.0:
            raise ValueError("mac_load_asymmetry must be >= 1.0")
        if self.mac_policy not in MAC_POLICY_KINDS:
            raise ValueError(
                f"unknown mac_policy {self.mac_policy!r}; "
                f"choose from {sorted(MAC_POLICY_KINDS)}"
            )
        if self.mac_detection_latency_bits < 0:
            raise ValueError("mac_detection_latency_bits must be >= 0")
        if self.mac_max_retries < 0:
            raise ValueError("mac_max_retries must be >= 0")
        # Fail fast on PHY / full-duplex knobs: constructing the configs
        # runs their own validation (rate divisibility, even ratio, ...).
        self.build_config()

    # -- derived builders --------------------------------------------------

    def replace(self, **changes) -> "ScenarioSpec":
        """A copy with the given fields changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def build_phy(self) -> PhyConfig:
        """The PHY configuration this scenario runs at."""
        return PhyConfig(
            sample_rate_hz=self.sample_rate_hz,
            bit_rate_bps=self.bit_rate_bps,
            coding=self.coding,
        )

    def build_config(self) -> FullDuplexConfig:
        """The full-duplex link configuration."""
        return FullDuplexConfig(
            phy=self.build_phy(),
            asymmetry_ratio=self.asymmetry_ratio,
            feedback_decode=self.feedback_decode,
            self_compensation=self.self_compensation,
        )

    def build_source(self) -> AmbientSource:
        """The ambient excitation generator."""
        if self.source_kind == "ofdm":
            return OfdmLikeSource(
                sample_rate_hz=self.sample_rate_hz,
                bandwidth_hz=self.source_bandwidth_hz,
                subcarriers=self.source_subcarriers,
            )
        if self.source_kind == "tone":
            return ToneSource(sample_rate_hz=self.sample_rate_hz)
        return FilteredNoiseSource(
            sample_rate_hz=self.sample_rate_hz,
            coherence_samples=self.source_coherence_samples,
        )

    def build_channel(self) -> ChannelModel:
        """The propagation model (path loss, fading, link budget)."""
        return ChannelModel(
            source_pathloss=_make_pathloss(
                self.source_pathloss, self.source_pathloss_exponent
            ),
            device_pathloss=_make_pathloss(
                self.device_pathloss, self.device_pathloss_exponent
            ),
            device_fading=make_fading(
                self.device_fading,
                **(
                    {"k_factor": self.fading_k_factor}
                    if self.device_fading == "rician"
                    else {}
                ),
            ),
            source_power_watt=self.source_power_watt,
            noise_power_watt=self.noise_power_watt,
        )

    def build_scene(self, distance_m: float | None = None) -> Scene:
        """The canonical two-device line scene (distance overridable)."""
        return Scene.two_device_line(
            device_separation_m=(
                self.distance_m if distance_m is None else distance_m
            ),
            source_distance_m=self.source_distance_m,
        )

    def build_mac_config(self):
        """The protocol-simulator workload this scenario describes."""
        from repro.mac.simulator import SimulationConfig
        from repro.mac.traffic import BernoulliLoss

        return SimulationConfig(
            num_links=self.mac_num_links,
            arrival_rate_pps=self.mac_arrival_rate_pps,
            load_asymmetry=self.mac_load_asymmetry,
            horizon_seconds=self.mac_horizon_seconds,
            payload_bytes=self.mac_payload_bytes,
            bit_rate_bps=self.bit_rate_bps,
            loss=BernoulliLoss(self.mac_loss_probability),
        )

    def build_mac_policy(self):
        """A fresh link-layer policy instance for :attr:`mac_policy`."""
        from repro.experiments.mac import build_mac_policy

        return build_mac_policy(self)

    def build(self) -> "ScenarioStack":
        """Construct the full simulation stack in one call."""
        config = self.build_config()
        source = self.build_source()
        return ScenarioStack(
            spec=self,
            config=config,
            source=source,
            link=FullDuplexLink(config, source),
            channel=self.build_channel(),
            scene=self.build_scene(),
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Flat JSON-ready dict of every field.

        Every field is a scalar, so a shallow dict suffices; unlike
        ``dataclasses.asdict`` it does not recurse or deep-copy, which
        matters because every store key derivation calls it.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown ScenarioSpec fields: {sorted(unknown)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class ScenarioStack:
    """A built scenario: every wired object plus the spec that made it.

    Attributes
    ----------
    spec:
        The originating declarative record.
    config / source / link / channel / scene:
        The wired simulation objects (see their classes).
    """

    spec: ScenarioSpec
    config: FullDuplexConfig
    source: AmbientSource
    link: FullDuplexLink
    channel: ChannelModel
    scene: Scene = field(repr=False)

    def realize(self, rng=None):
        """One block's channel gains for this stack's scene."""
        return self.channel.realize(self.scene, rng)

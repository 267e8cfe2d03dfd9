"""Composite channel model and sample-level waveform composition.

The heart of the propagation substrate.  :class:`ChannelModel` turns a
:class:`~repro.channel.geometry.Scene` into one trial's
:class:`LinkGains` — a table of complex amplitude gains:

* ``("source", dev)`` — broadcast path into each device;
* ``(dev_a, dev_b)`` — device-to-device backscatter path.

:func:`LinkGains.received` then composes what a device's antenna actually
sees when any subset of devices is backscattering:

.. math::

    y_D[n] = \\sqrt{P_s}\\Big( h_{sD} x[n]
        + \\sum_{T \\ne D} \\Gamma_T[n]\\, h_{sT}\\, h_{TD}\\, x[n] \\Big)
        + w[n]

with ``x`` the unit-power ambient waveform, ``Γ_T[n]`` device T's
instantaneous reflection amplitude (0 when absorbing), and ``w`` AWGN.
Backscattered paths are *dyadic* — the product of two amplitude gains —
which is why they are orders of magnitude weaker than the direct ambient
term, the defining difficulty of ambient backscatter reception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.channel.fading import BlockFading, NoFading
from repro.channel.geometry import Scene
from repro.channel.noise import complex_awgn
from repro.channel.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PathLossModel,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class LinkGains:
    """One block-fading realisation of every path in a scene.

    Attributes
    ----------
    gains:
        Complex amplitude gain per ordered pair of node names.  Reciprocal
        pairs share one draw (``gains[(a, b)] == gains[(b, a)]``).
    source_power_watt:
        EIRP of the ambient source.
    noise_power_watt:
        In-band noise power at every device front end.
    """

    gains: dict[tuple[str, str], complex]
    source_power_watt: float
    noise_power_watt: float

    def gain(self, a: str, b: str) -> complex:
        """Complex amplitude gain of the path ``a → b``."""
        key = (a, b)
        if key not in self.gains:
            raise KeyError(f"no gain for path {a!r} -> {b!r}")
        return self.gains[key]

    def direct_power(self, device: str) -> float:
        """Mean ambient power [W] arriving at ``device`` directly."""
        return self.source_power_watt * abs(self.gain("source", device)) ** 2

    def received(
        self,
        device: str,
        ambient: np.ndarray,
        reflections: dict[str, np.ndarray] | None = None,
        rng=None,
        include_noise: bool = True,
    ) -> np.ndarray:
        """Complex baseband waveform at ``device``'s antenna.

        Parameters
        ----------
        device:
            Receiving node name.
        ambient:
            Unit-mean-power ambient source waveform for this block.
        reflections:
            Map from backscattering device name to its instantaneous
            reflection-amplitude waveform (same length as ``ambient``;
            values in [0, 1]).  ``device`` itself may appear — its *own*
            entry is ignored here because self-reception gating is applied
            by the tag front end, not the channel.
        rng:
            Noise generator (seed/Generator).
        include_noise:
            Disable to obtain the noise-free field (used by tests).
        """
        x = np.asarray(ambient, dtype=complex)
        amp_src = np.sqrt(self.source_power_watt)
        field_sum = self.gain("source", device) * x
        if reflections:
            for tx, gamma in reflections.items():
                if tx == device:
                    continue
                g = np.asarray(gamma, dtype=float)
                if g.shape != x.shape:
                    raise ValueError(
                        f"reflection waveform for {tx!r} has shape {g.shape}, "
                        f"ambient has {x.shape}"
                    )
                field_sum = field_sum + (
                    self.gain("source", tx) * self.gain(tx, device)
                ) * (g * x)
        y = amp_src * field_sum
        if include_noise and self.noise_power_watt > 0:
            y = y + complex_awgn(x.size, self.noise_power_watt, rng)
        return y


@dataclass
class BatchLinkGains:
    """A stack of per-lane :class:`LinkGains`, one per batch lane.

    One object per Monte-Carlo batch: lane ``i`` holds trial ``i``'s
    block-fading realisation, drawn from trial ``i``'s own channel
    generator, so scalar and batched runs see identical gains.

    Attributes
    ----------
    lanes:
        Per-trial gain realisations, one per batch lane.
    """

    lanes: list[LinkGains]

    def __post_init__(self) -> None:
        if not self.lanes:
            raise ValueError("BatchLinkGains needs at least one lane")

    def __len__(self) -> int:
        return len(self.lanes)

    def __getitem__(self, lane: int) -> LinkGains:
        return self.lanes[lane]

    @property
    def source_power_watt(self) -> float:
        return self.lanes[0].source_power_watt

    @property
    def noise_power_watt(self) -> float:
        return self.lanes[0].noise_power_watt

    def received(
        self,
        device: str,
        ambient: np.ndarray,
        reflections: dict[str, np.ndarray] | None = None,
        rngs=None,
        include_noise: bool = True,
    ) -> np.ndarray:
        """:meth:`LinkGains.received` per lane, into one ``(N, samples)``
        array.

        ``ambient`` and each reflection waveform are ``(N, samples)``
        stacks; ``rngs`` supplies one noise generator per lane.
        """
        x = np.asarray(ambient, dtype=complex)
        if x.ndim != 2 or x.shape[0] != len(self.lanes):
            raise ValueError(
                f"ambient must be (lanes, samples) with {len(self.lanes)} "
                f"lanes, got shape {x.shape}"
            )
        if include_noise and self.noise_power_watt > 0:
            if rngs is None:
                raise ValueError("batched noise needs one rng per lane")
            rngs = list(rngs)
            if len(rngs) != len(self.lanes):
                raise ValueError(
                    f"need {len(self.lanes)} noise rngs, got {len(rngs)}"
                )
        else:
            rngs = [None] * len(self.lanes)
        reflections = reflections or {}
        out = np.empty_like(x)
        for lane, (gains, rng) in enumerate(zip(self.lanes, rngs)):
            out[lane] = gains.received(
                device,
                x[lane],
                {tx: gamma[lane] for tx, gamma in reflections.items()},
                rng=rng,
                include_noise=include_noise,
            )
        return out


@dataclass
class ChannelModel:
    """Scene → per-trial :class:`LinkGains` factory.

    Attributes
    ----------
    source_pathloss:
        Path-loss model for source→device paths (defaults to log-distance
        with exponent 2.4 — a lightly cluttered broadcast path).
    device_pathloss:
        Path-loss model for device→device paths (defaults to free space:
        tags sit within a few metres of each other).
    source_fading / device_fading:
        Small-scale fading per path class; defaults are static.
    source_power_watt:
        Ambient EIRP.  The paper's TV tower is ~1 MW ERP km away; the
        default here is the equivalent *local* ambient power budget,
        chosen so the direct path at a device lands near the measured
        ~-30 dBm ambient operating point.
    noise_power_watt:
        Front-end noise (thermal floor + noise figure over the detector
        bandwidth).
    """

    source_pathloss: PathLossModel = field(
        default_factory=lambda: LogDistancePathLoss(exponent=2.4)
    )
    device_pathloss: PathLossModel = field(default_factory=FreeSpacePathLoss)
    source_fading: BlockFading = field(default_factory=NoFading)
    device_fading: BlockFading = field(default_factory=NoFading)
    source_power_watt: float = 1.0e3
    noise_power_watt: float = 1.0e-13

    def __post_init__(self) -> None:
        check_positive("source_power_watt", self.source_power_watt)
        check_non_negative("noise_power_watt", self.noise_power_watt)

    def realize_batch(self, scene: Scene, rngs) -> BatchLinkGains:
        """One :meth:`realize` draw per generator, stacked for batching.

        Lane ``i`` consumes ``rngs[i]`` exactly as a scalar
        :meth:`realize` call would, so batched trials see the same
        channel realisations as their scalar counterparts.
        """
        return BatchLinkGains(lanes=[self.realize(scene, r) for r in rngs])

    def realize(self, scene: Scene, rng=None) -> LinkGains:
        """Draw one block's gains for every path in ``scene``.

        Reciprocity: the gain drawn for ``(a, b)`` is reused for
        ``(b, a)``.
        """
        if "source" not in scene.nodes:
            raise ValueError('scene must contain a node named "source"')
        gen = ensure_rng(rng)
        gains: dict[tuple[str, str], complex] = {}
        devices = scene.device_names()
        for dev in devices:
            d = scene.distance("source", dev)
            amp = self.source_pathloss.amplitude_gain(d)
            h = complex(self.source_fading.sample(gen))
            gains[("source", dev)] = amp * h
            gains[(dev, "source")] = amp * h
        for i, a in enumerate(devices):
            for b in devices[i + 1 :]:
                d = scene.distance(a, b)
                amp = self.device_pathloss.amplitude_gain(d)
                h = complex(self.device_fading.sample(gen))
                gains[(a, b)] = amp * h
                gains[(b, a)] = amp * h
        return LinkGains(
            gains=gains,
            source_power_watt=self.source_power_watt,
            noise_power_watt=self.noise_power_watt,
        )

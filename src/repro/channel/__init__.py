"""Propagation substrate.

Models the three kinds of paths in an ambient backscatter deployment:

* **source → device**: the strong broadcast path from the ambient source
  (TV tower) to each tag;
* **device → device**: the short backscatter path between tags;
* **dyadic (source → tag → receiver)**: the product channel a reflected
  signal traverses, which is what makes backscatter links so much weaker
  than the direct ambient path.

Path loss (:mod:`repro.channel.pathloss`), small-scale fading
(:mod:`repro.channel.fading`) and receiver noise
(:mod:`repro.channel.noise`) compose into :class:`ChannelModel`
(:mod:`repro.channel.link`), which turns a scene geometry
(:mod:`repro.channel.geometry`) into complex channel gains per trial.
"""

from repro.channel.fading import (
    BlockFading,
    NoFading,
    RayleighFading,
    RicianFading,
    make_fading,
)
from repro.channel.geometry import Node, Scene
from repro.channel.link import ChannelModel, LinkGains
from repro.channel.mobility import Waypoint, WaypointMobility
from repro.channel.noise import complex_awgn
from repro.channel.pathloss import (
    FreeSpacePathLoss,
    LogDistancePathLoss,
    PathLossModel,
    TwoRayGroundPathLoss,
)

__all__ = [
    "BlockFading",
    "ChannelModel",
    "FreeSpacePathLoss",
    "LinkGains",
    "LogDistancePathLoss",
    "NoFading",
    "Node",
    "PathLossModel",
    "RayleighFading",
    "RicianFading",
    "Scene",
    "TwoRayGroundPathLoss",
    "Waypoint",
    "WaypointMobility",
    "complex_awgn",
    "make_fading",
]

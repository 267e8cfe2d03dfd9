"""The three benchmark workloads and what each run of them does.

Every workload is a campaign run by ``CampaignRunner`` on the
vectorized backend, then rounds of a serial segment on a fixed subset
of its units, a warm sample and a report sample on the filled store.
The cold passes are a fixed amount of work; ``--seconds`` sets how many
rounds follow them.  The amounts depend on ``--seconds`` alone, so
every run of one workload does the same work whatever the machine's
speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Tag separations [m] and source distances [m] of the 300-unit grid.
GRID_DISTANCES_M = tuple(round(0.1 * i, 1) for i in range(1, 21))
GRID_SOURCE_DISTANCES_M = tuple(float(d) for d in range(200, 3001, 200))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes
    ----------
    name / why:
        Identification and the one-line reason it exists.
    campaign:
        Zero-argument factory of the ``CampaignSpec`` run by each pass.
    cold_passes:
        Cold passes per run, pass ``i`` with campaign seed
        ``SeedSequence([seed, i])``; ``trials_per_s`` is taken over all
        of them.  More than one where a single pass lasts only seconds,
        so the cold-pass time spans more of the machine's swings.
    serial_units:
        Predicate picking the units the serial segment re-runs (those
        of the last cold pass), about 0.7-1.5 s of work.
    serial_trials:
        Trial ceiling of a serial unit (``None``: the unit's budget).
        BER units stop as ``repro ber`` does: an error budget of 20, at
        least 5 trials.
    warm_reps / report_reps:
        Warm passes / reports timed together as one sample of about
        0.5 s of CPU or more; single millisecond timings do not repeat,
        and a warm sample, whose file writes make it the noisiest, is
        the longest.
    round_s:
        Nominal wall seconds of one round: a serial segment, a warm
        sample, then a report sample, so all three kinds sample the
        same stretches of time.  A run takes as many rounds as fit in
        ``--seconds``, at least ``min_rounds``, enough that the median
        sample of each kind is not decided by one slow stretch.
    fires / bypasses:
        Layer-trace stems that must record at least one call / exactly
        zero calls in a traced run of this workload.
    """

    name: str
    why: str
    campaign: Callable
    cold_passes: int
    serial_units: Callable
    serial_trials: int | None
    warm_reps: int
    report_reps: int
    round_s: float
    min_rounds: int = 4
    fires: tuple = ()
    bypasses: tuple = ()

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, int(seconds // self.round_s))


def _builtin(name: str) -> Callable:
    def build():
        from repro.campaigns.builtin import get_campaign

        return get_campaign(name)

    return build


def _grid_300():
    from repro.campaigns.spec import CampaignSpec

    return CampaignSpec(
        name="grid-300",
        description="synthetic 20 x 15 forward-BER grid, 2 trials a unit",
        scenario="calibrated-default",
        grid={
            "distance_m": GRID_DISTANCES_M,
            "source_distance_m": GRID_SOURCE_DISTANCES_M,
        },
        kinds=("forward-ber",),
        n_trials=2,
        seed=0,
    )


#: Stems every workload must exercise: the runner, store and campaign
#: layers, including the by-name imports of ``result_key`` and the codec.
_COMMON = (
    "experiments.runner_run", "store.keys", "store.get", "store.put",
    "store.has", "store.best_prefix", "store.codec.encode",
    "store.codec.decode", "campaigns.run", "campaigns.report",
)

#: Staging stems every sample-level (PHY) workload exercises, vectorized
#: and serial.
_STAGING = (
    "ambient.batch_samples", "ambient.samples", "channel.realize_batch",
    "channel.realize", "channel.batch_received", "channel.received",
    "fullduplex.stage", "dsp.single_pole_lowpass", "dsp.square_law_detector",
    "hardware.receive_envelope",
)

#: Stems of every layer below the experiment runner on the PHY side.
_PHY_STEMS = _STAGING + (
    "fullduplex.decode_aligned_bits", "fullduplex.decode_feedback",
    "fullduplex.run", "fullduplex.run_raw_bits", "phy.sync",
    "phy.receive_frame", "phy.transmit", "phy.encode_batch",
    "dsp.normalized_correlation", "hardware.harvested_energy",
)

_MAC_STEMS = ("mac.batch.run_chunk", "mac.batch.init", "mac.simulator")


def _point(unit) -> dict:
    return dict(unit.point)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="energy-grid",
            why="fig-energy-vs-range: framed exchange whose per-lane "
            "preamble sync dominates; stresses phy.sync, dsp, hardware",
            campaign=_builtin("fig-energy-vs-range"),
            cold_passes=1,
            serial_units=lambda u: _point(u)["distance_m"] == 2.5,
            serial_trials=4,
            warm_reps=120,
            report_reps=120,
            round_s=2.8,
            fires=_COMMON + _STAGING + (
                "fullduplex.run", "phy.sync", "phy.receive_frame",
                "phy.transmit", "dsp.normalized_correlation",
                "hardware.harvested_energy",
                "experiments.batch_energy_trials",
            ),
            bypasses=_MAC_STEMS,
        ),
        Workload(
            name="goodput-grid",
            why="fig-goodput-vs-load: MAC only, 5-lane chunks where the "
            "slot loop's per-slot overhead dominates; no PHY at all",
            campaign=_builtin("fig-goodput-vs-load"),
            cold_passes=2,
            serial_units=lambda u: _point(u)["mac_arrival_rate_pps"]
            in (0.5, 1.0),
            serial_trials=None,
            warm_reps=50,
            report_reps=40,
            round_s=3.4,
            fires=_COMMON + _MAC_STEMS + ("experiments.batch_mac_trials",),
            bypasses=_PHY_STEMS,
        ),
        Workload(
            name="grid-300",
            why="300-unit forward-BER grid at 2 trials a unit: store, "
            "checkpoint and campaign layers do the work; 2-lane chunks",
            campaign=_grid_300,
            cold_passes=1,
            serial_units=lambda u: _point(u)["distance_m"] == 1.9
            and _point(u)["source_distance_m"] == 1000.0,
            serial_trials=6,
            warm_reps=1,
            report_reps=8,
            round_s=5.8,
            min_rounds=3,
            fires=_COMMON + _STAGING + (
                "fullduplex.decode_aligned_bits", "fullduplex.run_raw_bits",
                "phy.encode_batch", "experiments.batch_forward_ber_trials",
                "experiments.stop_rule",
            ),
            bypasses=("phy.sync",) + _MAC_STEMS,
        ),
    )
}

"""Vectorized Monte-Carlo trials: N lanes of one scenario per call.

This module is the ``backend="vectorized"`` implementation behind
:class:`~repro.experiments.runner.ExperimentRunner`.  A *batched trial
function* takes a spec and a list of per-trial
:class:`numpy.random.SeedSequence` children and returns one record per
child — the same records, in the same order, as calling the scalar
trial function once per child.

Lane-seeding contract
---------------------
Lane ``i`` consumes exactly the child streams the scalar path derives
for trial ``i``:

1. the runner spawns one ``SeedSequence`` child per trial index from
   the root seed (identical for every backend);
2. each lane materialises ``default_rng(child)`` and splits it into the
   scalar trial's (channel, bits, run) generators with
   :func:`repro.utils.rng.spawn_rngs`;
3. every random draw (fading, payload bits, ambient coefficients,
   front-end noise) happens per lane, from the lane's own generator, in
   the scalar order — only the *deterministic* synthesis and DSP between
   the draws is batched (see :mod:`repro.fullduplex.batch`).

For the sample-level trial kinds (the BER pair, frame delivery and the
energy exchange) the scalar trials run the same
:class:`~repro.fullduplex.batch.BatchFullDuplexEngine` with one lane,
and no lane's output depends on the others, so ``backend="vectorized"``
reproduces ``backend="serial"`` records exactly.  The ``mac`` kind runs on the
slotted contention engine (:mod:`repro.mac.batch`), whose slot
quantisation makes it *statistically* rather than bitwise equivalent —
see DESIGN §7 for the contract.  ``tests/test_batch_equivalence.py``
enforces both, and ``benchmarks/bench_f7_batch_speedup.py`` /
``benchmarks/bench_m1_contention.py`` track the speedups.

Custom trials can join the fast path with
:func:`register_batched_trial`, pairing a scalar ``trial(spec, rng)``
with a batched ``batch(spec, children)`` implementation.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable

import numpy as np

from repro.experiments.mac import mac_trial
from repro.experiments.runner import (
    BITS_PER_TRIAL,
    _stack_for,
    energy_trial,
    feedback_ber_trial,
    forward_ber_trial,
    frame_delivery_trial,
)
from repro.experiments.spec import ScenarioSpec
from repro.fullduplex.batch import BatchFullDuplexEngine
from repro.mac.batch import SlottedMacEngine, shared_spec
from repro.utils.rng import ensure_rng, random_bits, spawn_rngs


def _lane_streams(children, count: int = 3) -> tuple[list, ...]:
    """Each child sequence → the scalar trial's ``count`` generators.

    The raw-bit trials spawn three streams per trial; the framed trial
    spawns four (channel, frame, feedback, run).
    """
    streams: tuple[list, ...] = tuple([] for _ in range(count))
    for child in children:
        rng = ensure_rng(child)
        for lane, gen in zip(streams, spawn_rngs(rng, count)):
            lane.append(gen)
    return streams


def _raw_exchange(spec, children, need_data: bool, need_feedback: bool):
    """The unframed BER exchange of ``forward_ber_trial`` /
    ``feedback_ber_trial`` for every lane.

    Both trials perform the identical draws and differ only in which
    direction they tally, so one exchange serves both — the direction
    not asked for is skipped (its decode is deterministic and its noise
    generator is private, so skipping cannot perturb the records).
    """
    stack = _stack_for(spec)
    rng_ch, rng_bits, rng_run = _lane_streams(children)
    gains = stack.channel.realize_batch(stack.scene, rng_ch)
    data = np.stack([random_bits(r, BITS_PER_TRIAL) for r in rng_bits])
    fb = np.stack(
        [
            random_bits(r, max(1, BITS_PER_TRIAL // spec.asymmetry_ratio))
            for r in rng_bits
        ]
    )
    decoded, fb_sent, fb_decoded = BatchFullDuplexEngine(
        stack.link
    ).raw_exchange(
        gains, data, fb, rng_run,
        need_data=need_data, need_feedback=need_feedback,
    )
    return data, decoded, fb_sent, fb_decoded


def batch_forward_ber_trials(spec: ScenarioSpec, children) -> list[dict]:
    """Batched :func:`~repro.experiments.runner.forward_ber_trial`."""
    children = list(children)
    if not children:
        return []
    data, decoded, _, _ = _raw_exchange(
        spec, children, need_data=True, need_feedback=False
    )
    errors = np.count_nonzero(decoded != data, axis=1)
    bits = int(data.shape[1])
    return [
        {"errors": int(e), "bits": bits, "ber": int(e) / bits}
        for e in errors
    ]


def batch_feedback_ber_trials(spec: ScenarioSpec, children) -> list[dict]:
    """Batched :func:`~repro.experiments.runner.feedback_ber_trial`."""
    children = list(children)
    if not children:
        return []
    _, _, fb_sent, fb_decoded = _raw_exchange(
        spec, children, need_data=False, need_feedback=True
    )
    errors = np.count_nonzero(fb_sent != fb_decoded, axis=1)
    bits = int(fb_sent.shape[1])
    return [
        {
            "errors": int(e),
            "bits": bits,
            "ber": int(e) / bits if bits else 0.0,
        }
        for e in errors
    ]


def _framed_exchange(spec, children, need_a: bool):
    """The framed exchange of ``frame_delivery_trial`` /
    ``energy_trial`` for every lane: draws, staging and B's reception.

    Returns ``(engine, frames, staged, delivered)``; A's side is staged
    only with ``need_a`` (the harvest books need it, delivery does not).
    """
    from repro.phy.framing import random_frame

    stack = _stack_for(spec)
    rng_ch, rng_frame, rng_fb, rng_run = _lane_streams(children, 4)
    gains = stack.channel.realize_batch(stack.scene, rng_ch)
    payload_bytes = 16
    frames = [random_frame(payload_bytes, r) for r in rng_frame]
    fb = np.stack(
        [
            random_bits(
                r,
                max(1, (payload_bytes * 8 + 64) // spec.asymmetry_ratio),
            )
            for r in rng_fb
        ]
    )
    engine = BatchFullDuplexEngine(stack.link)
    staged = engine.stage_frames(gains, frames, fb, rng_run, need_a=need_a)
    received = engine.receive_frames(staged, feedback_enabled=True)
    delivered = [
        result.delivered
        and np.array_equal(result.frame.payload_bits, frame.payload_bits)
        for result, frame in zip(received, frames)
    ]
    return engine, frames, staged, delivered


def batch_frame_delivery_trials(spec: ScenarioSpec, children) -> list[dict]:
    """Batched :func:`~repro.experiments.runner.frame_delivery_trial`.

    Synthesis, channel composition and staging are batched; preamble
    acquisition and frame parsing run per lane (sync is data-dependent
    control flow).
    """
    children = list(children)
    if not children:
        return []
    _, _, _, delivered = _framed_exchange(spec, children, need_a=False)
    return [
        {"errors": 0 if ok else 1, "bits": 1, "delivered": 1.0 if ok else 0.0}
        for ok in delivered
    ]


def batch_energy_trials(spec: ScenarioSpec, children) -> list[dict]:
    """Batched :func:`~repro.experiments.runner.energy_trial` (bitwise).

    The frame-delivery exchange with *both* antennas' incident fields
    composed (the harvest books need A's side too), then the
    deterministic energy accounting per lane.
    """
    from repro.hardware.energy import EnergyModel
    from repro.phy.framing import build_frame

    children = list(children)
    if not children:
        return []
    engine, frames, staged, delivered = _framed_exchange(
        spec, children, need_a=True
    )
    harvested_a, harvested_b = engine.harvested_energy(staged)
    warmup = engine.link.config.phy.warmup_bits
    model = EnergyModel()
    records = []
    for lane, frame in enumerate(frames):
        air_bits = int(build_frame(frame, warmup).size)
        records.append({
            "delivered": 1.0 if delivered[lane] else 0.0,
            "harvested_a_joule": float(harvested_a[lane]),
            "harvested_b_joule": float(harvested_b[lane]),
            "tx_energy_joule": float(model.tx_cost(air_bits)),
            "airtime_seconds": air_bits / spec.bit_rate_bps,
        })
    return records


#: Most lanes per slotted-engine call.  The slot loop's per-iteration
#: cost is amortised across lanes, so the MAC batch wants far more lanes
#: per call than the sample-level trials (whose memory footprint per
#: lane is a full waveform window).
MAC_CHUNK = 512


def batch_mac_trials(
    spec: ScenarioSpec | Sequence[ScenarioSpec], children
) -> list[dict]:
    """Batched :func:`~repro.experiments.mac.mac_trial` (statistical).

    Runs whole chunks of contention replications on the slotted engine
    (:class:`repro.mac.batch.SlottedMacEngine`).  Offered workloads are
    bit-identical to the serial trials'; delivery/abort/energy dynamics
    are statistically equivalent under the slot-quantisation contract
    documented in DESIGN §7 and pinned by the golden suite.

    ``spec`` is either one spec for every lane or a sequence of one
    spec per lane — how a campaign pools the missing trials of many
    units into one call.  Lanes are grouped by
    :func:`repro.mac.batch.shared_spec` and each group runs in engine
    calls of at most :data:`MAC_CHUNK` lanes; records come back in
    lane order, and a lane's record does not depend on the others.
    """
    children = list(children)
    if not children:
        return []
    specs = (
        [spec] * len(children)
        if isinstance(spec, ScenarioSpec)
        else list(spec)
    )
    if len(specs) != len(children):
        raise ValueError(f"{len(specs)} lane specs for {len(children)} seeds")
    shared: dict[ScenarioSpec, ScenarioSpec] = {}
    groups: dict[ScenarioSpec, list[int]] = {}
    for lane, lane_spec in enumerate(specs):
        if lane_spec not in shared:
            shared[lane_spec] = shared_spec(lane_spec)
        groups.setdefault(shared[lane_spec], []).append(lane)
    records: list = [None] * len(children)
    for group_spec, lanes in groups.items():
        engine = SlottedMacEngine(group_spec)
        for start in range(0, len(lanes), MAC_CHUNK):
            part = lanes[start : start + MAC_CHUNK]
            out = engine.run_chunk(
                [children[i] for i in part], [specs[i] for i in part]
            )
            for lane, record in zip(part, out):
                records[lane] = record
    return records


batch_mac_trials.preferred_chunk = MAC_CHUNK


#: Scalar trial function → batched implementation.
_BATCH_TRIALS: dict[Callable, Callable] = {
    forward_ber_trial: batch_forward_ber_trials,
    feedback_ber_trial: batch_feedback_ber_trials,
    frame_delivery_trial: batch_frame_delivery_trials,
    energy_trial: batch_energy_trials,
    mac_trial: batch_mac_trials,
}


def register_batched_trial(trial: Callable, batch: Callable) -> None:
    """Pair a scalar trial with its ``batch(spec, children)`` fast path."""
    _BATCH_TRIALS[trial] = batch


def batched_trial_for(trial: Callable) -> Callable:
    """The batched implementation backing ``trial``, or a clear error."""
    batch = _BATCH_TRIALS.get(trial)
    if batch is None:
        known = sorted(fn.__name__ for fn in _BATCH_TRIALS)
        raise ValueError(
            "no batched implementation registered for "
            f"{getattr(trial, '__name__', trial)!r}; register one with "
            "register_batched_trial() or use backend='serial'/'parallel' "
            f"(batched trials: {known})"
        )
    return batch

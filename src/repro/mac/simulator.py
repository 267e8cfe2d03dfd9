"""Event-driven network simulator: contending links in one collision
domain.

Model assumptions (deliberately matching the paper's deployment story):

* All devices share one collision domain — any temporal overlap between
  two transmissions corrupts both (backscatter receivers cannot capture).
* Transmitters are ALOHA: they cannot carrier-sense (an envelope detector
  cannot hear a backscatter neighbour reliably), so they transmit on
  arrival and use binary-exponential backoff on failure.
* Channel losses beyond collisions are Bernoulli per attempt, with a
  uniform corruption-onset position (see :mod:`repro.mac.traffic`).
* The link-layer behaviour — what happens once an attempt is doomed —
  is delegated to a :class:`repro.mac.arq.LinkPolicy`.

Each simulated link is a transmitter/receiver pair; ``NodeMetrics``
attributes transmitter-side energy to ``tx_energy_joule`` and
receiver-side energy (listening, ACK packets, feedback backscatter) to
``rx_energy_joule``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.hardware.energy import EnergyModel
from repro.mac.arq import AttemptContext, LinkPolicy, packet_airtime_bits
from repro.mac.events import EventQueue
from repro.mac.metrics import NetworkMetrics, NodeMetrics
from repro.mac.traffic import BernoulliLoss, UniformLossPosition, poisson_arrivals
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SimulationConfig:
    """Workload and PHY-abstraction parameters for one run.

    Attributes
    ----------
    num_links:
        Contending transmitter→receiver pairs.
    arrival_rate_pps:
        Mean Poisson packet arrival rate per link [packets/s].
    load_asymmetry:
        Ratio of the heaviest link's arrival rate to the lightest's.
        Per-link rates are geometrically spaced between the extremes and
        normalised so their mean stays ``arrival_rate_pps``; ``1.0``
        (default) keeps every link identical, bit-for-bit compatible
        with the historical behaviour.
    horizon_seconds:
        Arrival horizon; in-flight exchanges get a grace period to
        finish.
    payload_bytes:
        Application payload per packet.
    overhead_bits:
        PHY overhead per packet (preamble + length + CRC; 45 bits for the
        default frame format).
    bit_rate_bps:
        Over-the-air data rate.
    loss:
        Per-attempt non-collision corruption model.
    """

    num_links: int = 5
    arrival_rate_pps: float = 1.0
    load_asymmetry: float = 1.0
    horizon_seconds: float = 60.0
    payload_bytes: int = 64
    overhead_bits: int = 45
    bit_rate_bps: float = 1_000.0
    loss: BernoulliLoss = field(default_factory=BernoulliLoss)

    def __post_init__(self) -> None:
        check_positive("num_links", self.num_links)
        check_positive("arrival_rate_pps", self.arrival_rate_pps)
        check_positive("horizon_seconds", self.horizon_seconds)
        check_positive("payload_bytes", self.payload_bytes)
        check_positive("bit_rate_bps", self.bit_rate_bps)
        if self.load_asymmetry < 1.0:
            raise ValueError("load_asymmetry must be >= 1.0")

    def link_arrival_rates(self) -> list[float]:
        """Per-link arrival rates [packets/s], lightest link first.

        Geometric spacing between the extremes, rescaled so the mean is
        exactly :attr:`arrival_rate_pps`.
        """
        n = self.num_links
        if n == 1 or self.load_asymmetry == 1.0:
            return [self.arrival_rate_pps] * n
        weights = [self.load_asymmetry ** (i / (n - 1)) for i in range(n)]
        mean = sum(weights) / n
        return [self.arrival_rate_pps * w / mean for w in weights]

    @property
    def payload_bits(self) -> int:
        """Payload size in bits."""
        return 8 * self.payload_bytes

    @property
    def packet_bits(self) -> int:
        """Over-the-air packet size in bits."""
        return packet_airtime_bits(self.payload_bits, self.overhead_bits)

    @property
    def packet_seconds(self) -> float:
        """Airtime of one packet."""
        return self.packet_bits / self.bit_rate_bps


class _Transmission:
    """One occupancy interval on the shared medium."""

    __slots__ = ("owner", "start_time", "end_time", "on_corrupt", "corrupted")

    def __init__(self, owner, start_time: float, end_time: float,
                 on_corrupt: Callable[[float], None]):
        self.owner = owner
        self.start_time = start_time
        self.end_time = end_time
        self.on_corrupt = on_corrupt
        self.corrupted = False


class _Medium:
    """Single collision domain: overlap corrupts everyone involved."""

    def __init__(self) -> None:
        self._active: list[_Transmission] = []

    def begin(self, tx: _Transmission, now: float) -> None:
        if self._active:
            for other in self._active:
                other.on_corrupt(now)
            tx.on_corrupt(now)
        self._active.append(tx)

    def end(self, tx: _Transmission) -> None:
        if tx in self._active:
            self._active.remove(tx)


class SimHooks:
    """The narrow facade policies act through (see
    :mod:`repro.mac.arq`)."""

    def __init__(self, sim: "NetworkSimulator", link: "_LinkRuntime",
                 attempt: AttemptContext):
        self._sim = sim
        self._link = link
        #: The attempt these hooks are bound to (one SimHooks per attempt).
        self.attempt = attempt

    def schedule_bits(self, bits: float, action: Callable[[], None]) -> None:
        """Run ``action`` after ``bits`` bit-periods."""
        self._sim.queue.schedule(bits / self._sim.config.bit_rate_bps, action)

    def abort_at_bit(self, bit: int) -> None:
        """Stop the ongoing data transmission at data-bit ``bit``."""
        self._link.abort_attempt_at_bit(self.attempt, bit)

    def start_ack(self, ack_bits: int,
                  done: Callable[[bool], None]) -> None:
        """Transmit an ACK packet from the receiver side; ``done`` gets
        whether the ACK was corrupted."""
        self._link.start_ack(ack_bits, done)

    def resolve(self, delivered: bool, tx_knows: bool) -> None:
        """Finish the attempt; the simulator applies the retry rule."""
        self._link.resolve_attempt(self.attempt, delivered, tx_knows)


class _LinkRuntime:
    """State machine of one transmitter→receiver pair."""

    def __init__(self, sim: "NetworkSimulator", index: int,
                 policy: LinkPolicy, arrivals: np.ndarray, rng):
        self.sim = sim
        self.policy = policy
        self.metrics = NodeMetrics(name=f"link{index}")
        self.rng = rng
        self._arrivals = list(arrivals)
        self._queue: list[float] = []  # arrival times of waiting packets
        self._busy = False
        self._retry_count = 0
        self._packet_arrival: float | None = None
        self._packet_delivered = False
        self._current_tx: _Transmission | None = None
        self._last_attempt: AttemptContext | None = None
        self._hooks: SimHooks | None = None
        self._end_event = None
        self.busy_seconds = 0.0
        for t in self._arrivals:
            sim.queue.schedule_at(t, self._on_arrival)

    # -- arrivals and packet lifecycle ---------------------------------

    def _on_arrival(self) -> None:
        self.metrics.offered_packets += 1
        self._queue.append(self.sim.queue.now)
        if not self._busy:
            self._next_packet()

    def _next_packet(self) -> None:
        # The finished packet's hooks die here, whether or not another
        # packet is queued — no attempt state crosses packet boundaries.
        self._hooks = None
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        self._packet_arrival = self._queue.pop(0)
        self._packet_delivered = False
        self._retry_count = 0
        self._last_attempt = None
        self.policy.packet_reset()
        self._start_attempt()

    def _start_attempt(self) -> None:
        cfg = self.sim.config
        attempt_bits = self.policy.attempt_packet_bits(
            cfg.packet_bits, self._retry_count, self._last_attempt
        )
        attempt = AttemptContext(
            payload_bits=cfg.payload_bits,
            packet_bits=attempt_bits,
            start_time=self.sim.queue.now,
        )
        self._last_attempt = attempt
        self.metrics.attempts += 1
        # Rebound per attempt: corruption callbacks route through the
        # hooks of the attempt they were raised for, never a stale one.
        self._hooks = SimHooks(self.sim, self, attempt)

        duration = attempt.packet_bits / cfg.bit_rate_bps
        tx = _Transmission(
            owner=self,
            start_time=self.sim.queue.now,
            end_time=self.sim.queue.now + duration,
            on_corrupt=lambda now: self._corrupt(attempt, now),
        )
        self._current_tx = tx
        # The end event must exist before anything can corrupt the
        # attempt — an immediate collision (or a channel-loss onset)
        # triggers the policy's abort path, which reschedules it.
        self._end_event = self.sim.queue.schedule(
            duration, lambda: self._finish_data(attempt)
        )
        self.sim.medium.begin(tx, self.sim.queue.now)

        # Channel (non-collision) corruption decided up front; its onset
        # "occurs" at a position the receiver's detector will see.
        if cfg.loss.draw(self.rng):
            onset = self.sim.loss_position.draw(attempt.packet_bits, self.rng)
            self._corrupt_at_bit(attempt, onset)

    # -- corruption ----------------------------------------------------

    def _corrupt(self, attempt: AttemptContext, now: float) -> None:
        elapsed_bits = int(
            (now - attempt.start_time) * self.sim.config.bit_rate_bps
        )
        self._corrupt_at_bit(attempt, min(elapsed_bits,
                                          attempt.packet_bits - 1))

    def _corrupt_at_bit(self, attempt: AttemptContext, bit: int) -> None:
        if attempt.corrupted:
            return  # first corruption wins; later overlaps change nothing
        if self._hooks is None or self._hooks.attempt is not attempt:
            return  # stale event for an attempt that already finished
        attempt.corrupted = True
        attempt.onset_bit = bit
        if self._current_tx is not None:
            self._current_tx.corrupted = True
        self.policy.on_corruption(self._hooks, attempt)

    def abort_attempt_at_bit(self, attempt: AttemptContext, bit: int) -> None:
        if attempt.ended or attempt.aborted:
            return
        cfg = self.sim.config
        abort_time = attempt.start_time + bit / cfg.bit_rate_bps
        if abort_time >= self.sim.queue.now and self._end_event is not None:
            self.sim.queue.cancel(self._end_event)
            attempt.aborted = True
            attempt.bits_sent = bit
            self._end_event = self.sim.queue.schedule_at(
                max(abort_time, self.sim.queue.now),
                lambda: self._finish_data(attempt),
            )

    # -- data end, ACK exchange, resolution ------------------------------

    def _finish_data(self, attempt: AttemptContext) -> None:
        if attempt.ended:
            return
        if self._hooks is None or self._hooks.attempt is not attempt:
            return  # stale end event for a superseded attempt
        attempt.ended = True
        if self._current_tx is not None:
            self.sim.medium.end(self._current_tx)
            self._current_tx = None
        self.policy.on_data_end(self._hooks, attempt)

    def start_ack(self, ack_bits: int, done: Callable[[bool], None]) -> None:
        cfg = self.sim.config
        duration = ack_bits / cfg.bit_rate_bps
        tx = _Transmission(
            owner=self,
            start_time=self.sim.queue.now,
            end_time=self.sim.queue.now + duration,
            on_corrupt=lambda now: None,
        )
        # ACK packets die like any other transmission: collisions mark
        # them corrupted, and the channel-loss model applies too.
        tx.on_corrupt = lambda now: setattr(tx, "corrupted", True)
        self.sim.medium.begin(tx, self.sim.queue.now)
        if cfg.loss.draw(self.rng):
            tx.corrupted = True
        # Receiver spends transmit energy on the ACK; the original
        # transmitter listens for it.
        self.metrics.rx_energy_joule += self.sim.energy.tx_cost(ack_bits)
        self.metrics.tx_energy_joule += self.sim.energy.rx_cost(ack_bits)
        self.busy_seconds += duration

        def finish() -> None:
            self.sim.medium.end(tx)
            done(tx.corrupted)

        self.sim.queue.schedule(duration, finish)

    def resolve_attempt(self, attempt: AttemptContext, delivered: bool,
                        tx_knows: bool) -> None:
        if attempt.resolved:
            return
        attempt.resolved = True
        cfg = self.sim.config
        energy = self.sim.energy
        bits = attempt.bits_sent or attempt.packet_bits
        self.metrics.bits_transmitted += bits
        if attempt.aborted:
            self.metrics.aborted_attempts += 1
        self.metrics.tx_energy_joule += energy.tx_cost(bits)
        self.metrics.rx_energy_joule += energy.rx_cost(bits)
        self.metrics.rx_energy_joule += energy.feedback_cost(
            self.policy.feedback_slots(bits)
        )
        self.busy_seconds += bits / cfg.bit_rate_bps

        if delivered and not self._packet_delivered:
            self._packet_delivered = True
            self.metrics.delivered_packets += 1
            self.metrics.payload_bits_delivered += attempt.payload_bits
            if self._packet_arrival is not None:
                self.metrics.latency_sum_seconds += (
                    self.sim.queue.now - self._packet_arrival
                )

        success_known = delivered and tx_knows
        if success_known:
            self._next_packet()
            return
        if self._retry_count < self.policy.max_retries:
            self._retry_count += 1
            backoff = self.policy.backoff_seconds(
                self._retry_count, cfg.packet_seconds, self.rng
            )
            self.sim.queue.schedule(backoff, self._start_attempt)
            return
        if not self._packet_delivered:
            self.metrics.failed_packets += 1
        self._next_packet()


@dataclass
class NetworkSimulator:
    """Runs one scenario: N identical links under one policy.

    Attributes
    ----------
    config:
        Workload parameters.
    policy_factory:
        Zero-argument callable producing a fresh policy per link (state
        isolation between links).
    energy:
        Per-operation energy model.
    """

    config: SimulationConfig
    policy_factory: Callable[[], LinkPolicy]
    energy: EnergyModel = field(default_factory=EnergyModel)

    def run(self, rng=None) -> NetworkMetrics:
        """Simulate and return network-wide metrics."""
        gen = ensure_rng(rng)
        self.queue = EventQueue()
        self.medium = _Medium()
        self.loss_position = UniformLossPosition()
        link_rngs = spawn_rngs(gen, self.config.num_links)
        rates = self.config.link_arrival_rates()
        links = []
        for i, (rate, link_rng) in enumerate(zip(rates, link_rngs)):
            arrivals = poisson_arrivals(
                rate,
                self.config.horizon_seconds,
                link_rng,
            )
            links.append(
                _LinkRuntime(self, i, self.policy_factory(), arrivals, link_rng)
            )
        self.links = links
        grace = 50 * self.config.packet_seconds
        self.queue.run_until(self.config.horizon_seconds + grace)
        # Idle leakage for the remainder of each link's horizon.
        for link in links:
            idle = max(0.0, self.config.horizon_seconds - link.busy_seconds)
            link.metrics.tx_energy_joule += self.energy.idle_cost(idle)
            link.metrics.rx_energy_joule += self.energy.idle_cost(idle)
        return NetworkMetrics(
            nodes=[link.metrics for link in links],
            duration_seconds=self.config.horizon_seconds,
        )

"""Link-layer policies: fire-and-forget and half-duplex stop-and-wait.

A :class:`LinkPolicy` is a strategy object the network simulator calls at
the three moments that differentiate protocols:

* :meth:`LinkPolicy.on_corruption` — the instant an ongoing attempt
  becomes doomed (collision started, or the channel-loss onset passed);
  the full-duplex policy reacts here by scheduling an abort, the
  half-duplex ones cannot react at all;
* :meth:`LinkPolicy.on_data_end` — the data transmission finished (or
  was aborted); the policy resolves the attempt, possibly after more
  signalling (the half-duplex ACK exchange happens here);
* :meth:`LinkPolicy.backoff_seconds` — retry spacing.

Policies never touch the medium or the event queue directly beyond the
narrow :class:`repro.mac.simulator.SimHooks` facade, which keeps them
unit-testable in isolation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.utils.rng import ensure_rng
from repro.utils.validation import check_non_negative, check_positive


@dataclass
class AttemptContext:
    """Mutable record of one transmission attempt (owned by the simulator,
    read/written by policies through the hooks)."""

    payload_bits: int
    packet_bits: int
    start_time: float
    corrupted: bool = False
    onset_bit: int | None = None
    aborted: bool = False
    bits_sent: int = 0
    ended: bool = False
    resolved: bool = False


class LinkPolicy(ABC):
    """Protocol strategy interface (see module docstring)."""

    #: Human-readable policy name used in benchmark tables.
    name: str = "abstract"

    @abstractmethod
    def on_corruption(self, hooks, attempt: AttemptContext) -> None:
        """Called once, when the attempt first becomes corrupted."""

    @abstractmethod
    def on_data_end(self, hooks, attempt: AttemptContext) -> None:
        """Called when the data transmission ends (normally or aborted).

        Must eventually call ``hooks.resolve(delivered, tx_knows_outcome)``.
        """

    def backoff_seconds(self, retry_index: int, packet_seconds: float,
                        rng) -> float:
        """Binary-exponential random backoff (shared default)."""
        check_non_negative("retry_index", retry_index)
        gen = ensure_rng(rng)
        window = packet_seconds * (2 ** min(retry_index, 6))
        return float(gen.uniform(0.0, window))

    #: Retries after the first attempt before giving up.
    max_retries: int = 5

    def feedback_slots(self, bits: int) -> int:
        """Feedback bits the receiver spends during ``bits`` of data
        (zero for half-duplex policies)."""
        return 0

    def attempt_packet_bits(self, full_packet_bits: int, retry_index: int,
                            previous: "AttemptContext | None") -> int:
        """Airtime of the next attempt.

        Default: every attempt resends the whole packet.  Policies that
        exploit in-packet feedback can shrink retries (see
        :class:`repro.mac.resume.ResumeFromAbortPolicy`).
        """
        return full_packet_bits

    def packet_reset(self) -> None:
        """Called when a new packet begins (clear per-packet state)."""


@dataclass
class NoArqPolicy(LinkPolicy):
    """Fire and forget: one attempt, no acknowledgement of any kind.

    The transmitter never learns the outcome; delivery relies entirely on
    the channel.  This is the SIGCOMM'13 baseline operating mode.
    """

    name: str = "no-arq"
    max_retries: int = 0

    def on_corruption(self, hooks, attempt: AttemptContext) -> None:
        pass  # cannot react

    def on_data_end(self, hooks, attempt: AttemptContext) -> None:
        attempt.bits_sent = attempt.packet_bits
        delivered = not attempt.corrupted
        # tx never knows; latency is counted at data end when delivered.
        hooks.resolve(delivered=delivered, tx_knows=False)


@dataclass
class HalfDuplexArqPolicy(LinkPolicy):
    """Stop-and-wait ARQ with an explicit ACK packet.

    After the data packet the receiver turns around (``turnaround_bits``
    of dead air — battery-free devices switch slowly) and transmits an
    ``ack_bits``-long ACK packet, which occupies the medium and can
    itself collide or be lost.  The transmitter times out
    ``timeout_guard_bits`` after the latest possible ACK arrival and
    retries with backoff.

    Attributes
    ----------
    ack_bits:
        ACK packet airtime (preamble + header + CRC, no payload).
    turnaround_bits:
        RX→TX turnaround in bit periods.
    timeout_guard_bits:
        Slack after the expected ACK end before declaring a timeout.
    """

    ack_bits: int = 45
    turnaround_bits: int = 8
    timeout_guard_bits: int = 8
    max_retries: int = 5
    name: str = "hd-arq"

    def __post_init__(self) -> None:
        check_positive("ack_bits", self.ack_bits)
        check_non_negative("turnaround_bits", self.turnaround_bits)
        check_non_negative("timeout_guard_bits", self.timeout_guard_bits)

    def on_corruption(self, hooks, attempt: AttemptContext) -> None:
        pass  # half-duplex: no in-flight knowledge

    def on_data_end(self, hooks, attempt: AttemptContext) -> None:
        attempt.bits_sent = attempt.packet_bits
        if attempt.corrupted:
            # Receiver decodes garbage -> no ACK -> timeout path.
            wait = self.turnaround_bits + self.ack_bits + self.timeout_guard_bits
            hooks.schedule_bits(wait, lambda: hooks.resolve(
                delivered=False, tx_knows=True))
            return
        # Receiver got it: after the turnaround it transmits the ACK,
        # which traverses the shared medium like any other transmission.
        def send_ack() -> None:
            hooks.start_ack(self.ack_bits, on_ack_done)

        def on_ack_done(ack_corrupted: bool) -> None:
            if ack_corrupted:
                # Delivered, but the tx doesn't know -> duplicate retry.
                hooks.schedule_bits(
                    self.timeout_guard_bits,
                    lambda: hooks.resolve(delivered=True, tx_knows=False),
                )
            else:
                hooks.resolve(delivered=True, tx_knows=True)

        hooks.schedule_bits(self.turnaround_bits, send_ack)


def packet_airtime_bits(payload_bits: int, overhead_bits: int) -> int:
    """Over-the-air size of a data packet."""
    check_non_negative("payload_bits", payload_bits)
    check_non_negative("overhead_bits", overhead_bits)
    return payload_bits + overhead_bits

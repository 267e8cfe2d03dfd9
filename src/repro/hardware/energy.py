"""Energy accounting for battery-free devices.

Two pieces:

* :class:`EnergyModel` — per-operation costs (transmit a bit, receive a
  bit, idle), calibrated to the microwatt scale of backscatter hardware:
  switching an RF transistor costs almost nothing, while running the
  receive chain (detector bias + comparator) dominates.
* :class:`EnergyLedger` — a running account of harvested and spent energy
  during a simulation, with the event log the energy benchmarks read.

The early-abort benefit claimed by the paper is an *energy* benefit: a
transmitter that keeps sending a doomed packet burns ``tx_bit_joule`` per
remaining bit, plus the receiver burns ``rx_bit_joule`` listening to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy costs [J].

    Defaults follow the ambient-backscatter hardware scale: ~0.25 µW
    transmit and ~0.5 µW receive power at 1 kbps give 0.25 nJ/bit and
    0.5 nJ/bit respectively; idle burns leakage three orders down.
    """

    tx_bit_joule: float = 0.25e-9
    rx_bit_joule: float = 0.5e-9
    idle_second_joule: float = 1.0e-9
    feedback_bit_joule: float = 0.25e-9

    def __post_init__(self) -> None:
        for name in ("tx_bit_joule", "rx_bit_joule", "idle_second_joule",
                     "feedback_bit_joule"):
            check_non_negative(name, getattr(self, name))

    def tx_cost(self, bits: int) -> float:
        """Energy to transmit ``bits`` data bits."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return self.tx_bit_joule * bits

    def rx_cost(self, bits: int) -> float:
        """Energy to receive ``bits`` data bits."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return self.rx_bit_joule * bits

    def idle_cost(self, seconds: float) -> float:
        """Leakage energy over an idle interval."""
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        return self.idle_second_joule * seconds

    def feedback_cost(self, bits: int) -> float:
        """Energy to backscatter ``bits`` feedback bits."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return self.feedback_bit_joule * bits


@dataclass
class EnergyLedger:
    """Running account of one device's energy flows.

    ``spent`` and ``harvested`` accumulate in joules; ``events`` records
    ``(label, joules)`` pairs (positive = harvested, negative = spent)
    for post-hoc attribution in the energy benches.
    """

    spent_joule: float = 0.0
    harvested_joule: float = 0.0
    events: list[tuple[str, float]] = field(default_factory=list)

    def spend(self, label: str, joule: float) -> None:
        """Record consumption; negative amounts are rejected."""
        check_non_negative("joule", joule)
        self.spent_joule += joule
        self.events.append((label, -joule))

    def harvest(self, joule: float) -> None:
        """Record harvested energy."""
        check_non_negative("joule", joule)
        self.harvested_joule += joule
        self.events.append(("harvest", joule))

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger's totals and events into this one."""
        self.spent_joule += other.spent_joule
        self.harvested_joule += other.harvested_joule
        self.events.extend(other.events)

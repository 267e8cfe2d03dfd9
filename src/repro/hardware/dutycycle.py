"""Energy-neutral duty cycling.

A battery-free device stores harvested energy in a small capacitor and
must never let an operation run the store to zero mid-way (a brown-out
loses the packet *and* the device state).  The controller here
implements the standard reserve policy:

* energy arrives continuously at the measured harvest rate;
* an operation of estimated cost ``E`` may start only if the store can
  pay ``E`` and still hold ``reserve_joule`` afterwards;
* otherwise the device defers and keeps harvesting — the controller
  reports *when* enough energy will have accumulated.

The paper's energy argument lands exactly here: early abort reduces the
per-packet cost, which lowers the duty-cycle wait between transmissions
for the same harvest income.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.validation import check_non_negative, check_positive


@dataclass
class EnergyNeutralController:
    """Capacitor-store admission controller.

    Attributes
    ----------
    capacity_joule:
        Storage capacity (a 100 µF capacitor charged 1.8→3.3 V stores
        ~380 nJ of usable energy; the default is that order).
    reserve_joule:
        Minimum store that must remain after admitting an operation
        (brown-out guard band).
    store_joule:
        Current stored energy (starts empty by default).
    """

    capacity_joule: float = 4e-7
    reserve_joule: float = 5e-8
    store_joule: float = 0.0
    deferred_ops: int = field(default=0, init=False)
    admitted_ops: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        check_positive("capacity_joule", self.capacity_joule)
        check_non_negative("reserve_joule", self.reserve_joule)
        check_non_negative("store_joule", self.store_joule)
        if self.reserve_joule >= self.capacity_joule:
            raise ValueError("reserve must be below capacity")
        if self.store_joule > self.capacity_joule:
            raise ValueError("store cannot exceed capacity")

    def harvest(self, joule: float) -> None:
        """Add harvested energy (clipped at capacity)."""
        check_non_negative("joule", joule)
        self.store_joule = min(self.store_joule + joule, self.capacity_joule)

    def harvest_for(self, seconds: float, rate_watt: float) -> None:
        """Accumulate at a harvest rate for a duration."""
        check_non_negative("seconds", seconds)
        check_non_negative("rate_watt", rate_watt)
        self.harvest(seconds * rate_watt)

    def can_afford(self, cost_joule: float) -> bool:
        """Whether an operation of this cost may start now."""
        check_non_negative("cost_joule", cost_joule)
        return self.store_joule - cost_joule >= self.reserve_joule

    def admit(self, cost_joule: float) -> bool:
        """Try to start an operation: debits the store on success,
        records a deferral on failure."""
        if self.can_afford(cost_joule):
            self.store_joule -= cost_joule
            self.admitted_ops += 1
            return True
        self.deferred_ops += 1
        return False

    def wait_for(self, cost_joule: float, harvest_rate_watt: float) -> float:
        """Seconds of harvesting needed before ``cost_joule`` is
        affordable (0 when affordable now; ``inf`` when the cost exceeds
        what the store can ever hold)."""
        check_non_negative("cost_joule", cost_joule)
        if self.can_afford(cost_joule):
            return 0.0
        needed = cost_joule + self.reserve_joule
        if needed > self.capacity_joule:
            return float("inf")
        if harvest_rate_watt <= 0:
            return float("inf")
        deficit = needed - self.store_joule
        return deficit / harvest_rate_watt

    @property
    def deferral_ratio(self) -> float:
        """Deferred / total admission attempts."""
        total = self.deferred_ops + self.admitted_ops
        return self.deferred_ops / total if total else 0.0


def sustainable_packet_rate(
    packet_cost_joule: float,
    harvest_rate_watt: float,
) -> float:
    """Long-run packets/second an energy-neutral device can sustain.

    The renewal bound ``harvest_rate / packet_cost``; the paper's
    energy claim in one number — early abort lowers the denominator.
    """
    check_positive("packet_cost_joule", packet_cost_joule)
    check_non_negative("harvest_rate_watt", harvest_rate_watt)
    return harvest_rate_watt / packet_cost_joule

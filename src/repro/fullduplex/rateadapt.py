"""Feedback-driven rate adaptation.

A transmitter with a live feedback channel learns the link quality every
packet — *during* the packet, even.  :class:`RateAdapter` implements a
conservative ladder policy over a discrete rate set:

* step **down** one rung immediately on a failed (NACKed or lost) packet;
* step **up** one rung after ``raise_after`` consecutive successes.

This is the classic additive-increase / immediate-decrease ladder; the
point of the example/bench built on it is not the policy's cleverness
but how much faster it converges when failure news arrives mid-packet
instead of after a timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.validation import check_positive

#: Default rate ladder [bit/s] — powers of two around the 1 kbps design point.
DEFAULT_RATES_BPS = (250.0, 500.0, 1_000.0, 2_000.0, 4_000.0)


@dataclass
class RateAdapter:
    """Ladder rate controller driven by per-packet outcomes.

    Attributes
    ----------
    rates_bps:
        Ascending ladder of available bit rates.
    raise_after:
        Consecutive successes required before stepping up.
    start_index:
        Initial rung (defaults to the lowest rate — conservative start).
    """

    rates_bps: tuple[float, ...] = DEFAULT_RATES_BPS
    raise_after: int = 4
    start_index: int = 0

    _index: int = field(init=False)
    _streak: int = field(init=False, default=0)
    _history: list[tuple[float, bool]] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if len(self.rates_bps) < 1:
            raise ValueError("rates_bps must be non-empty")
        if list(self.rates_bps) != sorted(self.rates_bps):
            raise ValueError("rates_bps must be ascending")
        check_positive("raise_after", self.raise_after)
        if not 0 <= self.start_index < len(self.rates_bps):
            raise ValueError("start_index out of range")
        self._index = self.start_index

    @property
    def current_rate_bps(self) -> float:
        """The rate the next packet should use."""
        return self.rates_bps[self._index]

    @property
    def history(self) -> list[tuple[float, bool]]:
        """Chronological ``(rate_used, success)`` log."""
        return list(self._history)

    def record(self, success: bool) -> float:
        """Feed one packet outcome; returns the rate for the next packet."""
        self._history.append((self.current_rate_bps, bool(success)))
        if success:
            self._streak += 1
            if self._streak >= self.raise_after:
                self._streak = 0
                self._index = min(self._index + 1, len(self.rates_bps) - 1)
        else:
            self._streak = 0
            self._index = max(self._index - 1, 0)
        return self.current_rate_bps

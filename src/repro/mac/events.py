"""Minimal discrete-event engine.

A binary-heap calendar queue with stable FIFO ordering for simultaneous
events.  Callbacks may schedule further events and may cancel previously
scheduled ones (cancellation is lazy: cancelled entries are skipped when
popped, the standard heapq idiom).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class _Entry:
    time: float
    seq: int
    action: Callable[[], None] | None

    def __lt__(self, other: "_Entry") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


@dataclass
class EventQueue:
    """Time-ordered callback scheduler.

    Attributes
    ----------
    now:
        Current simulation time [s]; advances monotonically as events run.
    """

    now: float = 0.0
    _heap: list[_Entry] = field(default_factory=list)
    _counter: itertools.count = field(default_factory=itertools.count)

    def schedule(self, delay: float, action: Callable[[], None]) -> _Entry:
        """Schedule ``action`` to run ``delay`` seconds from now.

        Returns a handle accepted by :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        entry = _Entry(time=self.now + delay, seq=next(self._counter),
                       action=action)
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_at(self, time: float, action: Callable[[], None]) -> _Entry:
        """Schedule ``action`` at an absolute time (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        entry = _Entry(time=time, seq=next(self._counter), action=action)
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: _Entry) -> None:
        """Lazily cancel a scheduled event (safe to call twice)."""
        entry.action = None

    def run_until(self, end_time: float) -> None:
        """Run all events with ``time <= end_time``; ``now`` lands on
        ``end_time`` afterwards."""
        if end_time < self.now:
            raise ValueError("end_time precedes current time")
        while self._heap and self._heap[0].time <= end_time:
            entry = heapq.heappop(self._heap)
            if entry.action is None:
                continue
            self.now = entry.time
            action, entry.action = entry.action, None
            action()
        self.now = end_time

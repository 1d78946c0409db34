"""A minimal discrete-event simulation engine.

Deliberately small: a time-ordered heap of events, monotonically
advancing clock, cancellation, and a run loop.  Everything the WLAN
simulation needs and nothing more.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordering: time, then insertion sequence."""

    time_s: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class EventScheduler:
    """Time-ordered event loop with a monotonically advancing clock."""

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._now = 0.0
        self._processed = 0

    @property
    def now_s(self) -> float:
        return self._now

    @property
    def processed_count(self) -> int:
        return self._processed

    @property
    def pending_count(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def schedule_at(self, time_s: float, callback: Callable[[], None],
                    label: str = "") -> Event:
        """Schedule ``callback`` at absolute time ``time_s``."""
        if time_s < self._now:
            raise ValueError(
                f"cannot schedule into the past: {time_s} < now {self._now}")
        event = Event(time_s, next(self._counter), callback, label=label)
        heapq.heappush(self._heap, event)
        return event

    def schedule_after(self, delay_s: float, callback: Callable[[], None],
                       label: str = "") -> Event:
        """Schedule ``callback`` ``delay_s`` from the current time."""
        if delay_s < 0.0:
            raise ValueError(f"delay must be non-negative, got {delay_s}")
        return self.schedule_at(self._now + delay_s, callback, label)

    def step(self) -> Optional[Event]:
        """Process the next pending event; None when the heap is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time_s
            self._processed += 1
            event.callback()
            return event
        return None

    def run(self, until_s: Optional[float] = None,
            max_events: int = 10_000_000) -> float:
        """Run until the heap drains, ``until_s`` passes, or the event
        budget is exhausted.  Returns the final clock value."""
        for _ in range(max_events):
            if until_s is not None and self._heap:
                head = self._heap[0]
                if head.time_s > until_s:
                    self._now = until_s
                    return self._now
            if self.step() is None:
                return self._now
        raise RuntimeError(f"event budget of {max_events} exhausted; "
                           f"likely a scheduling loop")

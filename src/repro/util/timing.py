"""Lightweight phase timers for scheduler performance observability.

The scheduler stack has three distinct phases per call — cost-graph
construction, blossom matching, schedule assembly — whose relative
weight shifts with the backlog size.  :class:`PhaseTimer` accumulates
wall-clock seconds per named phase so experiments and benchmarks can
report where the time went without threading ad-hoc ``perf_counter``
pairs through every layer.

Timers only ever *measure*; they never feed results, so they use
``time.perf_counter`` (monotonic, RPR301-safe).  The clock is
injectable for tests.

Accumulation is thread-safe, so one timer can be charged from
several threads.
"""

from __future__ import annotations

from contextlib import contextmanager
from threading import Lock
from time import perf_counter
from typing import Callable, Dict, Iterator, Optional


class PhaseTimer:
    """Accumulates elapsed seconds and call counts per named phase.

    >>> timer = PhaseTimer()
    >>> with timer.phase("matching"):
    ...     pass
    >>> timer.count("matching")
    1

    Nested and repeated phases simply accumulate; a phase re-entered
    recursively counts its wall-clock span once per entry.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self._lock = Lock()
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager charging its body's elapsed time to ``name``."""
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            with self._lock:
                self._totals[name] = self._totals.get(name, 0.0) + elapsed
                self._counts[name] = self._counts.get(name, 0) + 1

    def total_s(self, name: str) -> float:
        """Accumulated seconds charged to ``name`` (0.0 if never entered)."""
        with self._lock:
            return self._totals.get(name, 0.0)

    def count(self, name: str) -> int:
        """How many times ``name`` was entered."""
        with self._lock:
            return self._counts.get(name, 0)

    @property
    def phases(self) -> Dict[str, float]:
        """Snapshot of per-phase totals, in phase-first-seen order."""
        with self._lock:
            return dict(self._totals)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-friendly dump: ``{phase: {"total_s": ..., "count": ...}}``."""
        with self._lock:
            return {
                name: {"total_s": self._totals[name],
                       "count": float(self._counts[name])}
                for name in self._totals
            }

    def reset(self) -> None:
        """Drop all accumulated totals and counts."""
        with self._lock:
            self._totals.clear()
            self._counts.clear()


@contextmanager
def maybe_phase(timer: Optional[PhaseTimer], name: str) -> Iterator[None]:
    """``timer.phase(name)`` when a timer is given, else a no-op.

    Lets instrumented code take an ``Optional[PhaseTimer]`` without
    branching at every phase boundary.
    """
    if timer is None:
        yield
    else:
        with timer.phase(name):
            yield

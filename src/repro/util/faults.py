"""Deterministic chunk and pool fault injection for the chunked engines.

Long Monte-Carlo sweeps die for boring reasons: an OOM-killed worker, a
wedged process pool, a truncated cache entry.  The supervised executor
(:mod:`repro.experiments.runner`) recovers from all of them, retrying a
failed chunk at once up to ``ExecutionPolicy.max_attempts`` times, and
this module supplies the injector its recovery tests drive it with:

* :class:`FaultInjector` — fails the chunk invocations and pool rounds
  a test names explicitly.  Decisions are pure functions of
  ``(engine, chunk_index, attempt)`` and the pool round — no wall
  clock, no randomness — so every recovery path replays bit for bit.

The injector is a frozen dataclass: hashable, picklable (it crosses
the ``ProcessPoolExecutor`` boundary next to the chunk payload), and
safe to share between supervisor and workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple


class InjectedFault(RuntimeError):
    """Raised by :class:`FaultInjector` in place of a real worker crash."""


@dataclass(frozen=True)
class FaultInjector:
    """Deterministically fail chunk invocations and pool rounds.

    Two failure sources compose (either firing fails the invocation),
    each keyed on ``(engine, chunk_index, attempt)``:

    * ``fail_first_attempts`` — every chunk fails its first N attempts
      ("kill every chunk once" is ``fail_first_attempts=1``);
    * ``failures`` — an explicit set of
      ``(engine, chunk_index, attempt)`` triples.

    ``pool_break_rounds`` names the (0-based) pool rounds the supervisor
    must treat as a crashed ``ProcessPoolExecutor``; each break consumes
    one rebuild from the executor's budget.
    """

    fail_first_attempts: int = 0
    failures: FrozenSet[Tuple[str, int, int]] = frozenset()
    pool_break_rounds: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        if self.fail_first_attempts < 0:
            raise ValueError("fail_first_attempts must be non-negative")
        object.__setattr__(self, "failures", frozenset(self.failures))
        object.__setattr__(
            self, "pool_break_rounds", frozenset(self.pool_break_rounds))

    def should_fail(self, engine: str, chunk_index: int, attempt: int) -> bool:
        """Whether this chunk invocation must fail (pure, replayable)."""
        if attempt <= self.fail_first_attempts:
            return True
        return (engine, chunk_index, attempt) in self.failures

    def check_chunk(self, engine: str, chunk_index: int, attempt: int) -> None:
        """Raise :class:`InjectedFault` when this invocation must fail."""
        if self.should_fail(engine, chunk_index, attempt):
            raise InjectedFault(
                f"injected fault: engine={engine!r} chunk={chunk_index} "
                f"attempt={attempt}")

    def should_break_pool(self, round_index: int) -> bool:
        """Whether pool round ``round_index`` (0-based) must crash."""
        return round_index in self.pool_break_rounds


def always_failing(engine: str, chunk_index: int,
                   max_attempts: int = 3) -> FaultInjector:
    """An injector that fails every attempt of one chunk.

    Convenience for interruption tests: the chunk exhausts any retry
    budget up to ``max_attempts`` while every other chunk succeeds.
    """
    triples = frozenset((engine, chunk_index, attempt)
                        for attempt in range(1, max_attempts + 1))
    return FaultInjector(failures=triples)

"""A suite-pool wrapper that times each chunk in the worker.

``SuitePool.stats()`` counts a chunk as busy from dispatch to done,
with up to two chunks per worker in flight, so its utilization
includes executor queue wait and can exceed 100%.  :class:`TimedPool`
is passed to ``run_suite(pool=...)``, which puts it into
``ExecutionPolicy.pool``; every chunk then runs inside
:func:`_timed_call`, which reports when the worker started and ended
it, the worker CPU it used and the worker's peak RSS.  Timestamps use
``time.monotonic``, one system-wide clock on Linux, so parent and
worker times compare directly.
"""

from __future__ import annotations

import resource
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List

from repro.experiments.suite import SuitePool
from repro.experiments.transport import release_chunk


@dataclass(frozen=True)
class ChunkTiming:
    """One chunk: parent submit time, worker start and end, worker use."""

    submitted: float
    started: float
    ended: float
    cpu_s: float
    worker_maxrss_kib: int


def _timed_call(fn: Callable[..., object], args: tuple) -> tuple:
    """Run one chunk in a worker and report its timing (picklable)."""
    started = time.monotonic()
    cpu = time.process_time()
    result = fn(*args)
    cpu = time.process_time() - cpu
    ended = time.monotonic()
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result, started, ended, cpu, maxrss


class _TimedRound:
    """A round of the wrapped pool whose futures yield bare chunk results."""

    def __init__(self, owner: "TimedPool", inner: object) -> None:
        self._owner = owner
        self._inner = inner

    def submit(self, fn: Callable[..., object], *args: object) -> Future:
        outer: Future = Future()
        submitted = time.monotonic()
        inner = self._inner.submit(_timed_call, fn, args)
        outer._timed_inner = inner  # type: ignore[attr-defined]
        inner.add_done_callback(partial(self._settle, outer, submitted))
        return outer

    def _settle(self, outer: Future, submitted: float, inner: Future) -> None:
        if inner.cancelled():
            outer.cancel()
            return
        exc = inner.exception()
        if exc is not None:
            try:
                outer.set_exception(exc)
            except InvalidStateError:
                pass
            return
        result, started, ended, cpu_s, maxrss = inner.result()
        self._owner.chunks.append(
            ChunkTiming(submitted, started, ended, cpu_s, maxrss))
        try:
            outer.set_result(result)
        except InvalidStateError:  # abandoned by the supervisor
            release_chunk(result)

    def broken(self) -> None:
        self._inner.broken()

    def abandon(self, futures: List[Future]) -> None:
        inner = [future._timed_inner for future in futures]
        for future in futures:
            if not future.cancel() and future.done() \
                    and future.exception() is None:
                release_chunk(future.result())
        self._inner.abandon(inner)


class TimedPool:
    """Drop-in for :class:`SuitePool` in ``run_suite(pool=...)``."""

    def __init__(self, pool: SuitePool) -> None:
        self.pool = pool
        self.workers = pool.workers
        self.chunks: List[ChunkTiming] = []

    def open_round(self, lane: str) -> _TimedRound:
        return _TimedRound(self, self.pool.open_round(lane))

    def stats(self) -> Dict[str, object]:
        return self.pool.stats()

    def interrupt(self, exc: BaseException) -> None:
        self.pool.interrupt(exc)

    def take(self) -> List[ChunkTiming]:
        """Timings recorded since the last call."""
        chunks, self.chunks = self.chunks, []
        return chunks

    def close(self) -> None:
        self.pool.close()

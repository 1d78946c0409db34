"""Supervised chunked execution for the Monte-Carlo engines.

Every batched engine splits its work into chunks and hands them to
:func:`run_chunked` (seeded draws) or :func:`run_indexed` (an indexed
map over precomputed items).  A **supervisor** drives the chunks to
completion, keeping the hard invariant — results bit-identical to a
fault-free serial run — while recovering from:

* **chunk failures** — a failed chunk is resubmitted at once, up to
  :attr:`ExecutionPolicy.max_attempts` attempts in all; a chunk that
  exhausts them raises :class:`ChunkExecutionError`;
* **pool failures** — ``BrokenProcessPool`` (a worker OOM-killed or
  segfaulted) and worker timeouts rebuild the pool and resubmit *only
  the chunks still missing*; after ``max_pool_rebuilds`` consecutive
  pool deaths the supervisor degrades to in-process execution with a
  structured :class:`ExecutionDegradedWarning` — never a silent
  behaviour change;
* **hung workers** — a :class:`Watchdog` (per-chunk deadline plus a
  pool heartbeat, measured on an *injectable* clock so the policy is
  testable without wall-clock sleeps) detects a wedged chunk or a
  silent pool and routes recovery through the same rebuild path, so a
  single stuck worker never stalls a sweep indefinitely;
* **operator interrupts** — SIGINT/SIGTERM (delivered as
  :class:`repro.util.errors.ResumableInterrupt` by the CLI layer) make
  the supervisor flush every already-completed chunk to the checkpoint
  store before the interrupt propagates, so an interrupted sweep loses
  at most the chunks still in flight and resumes bit-identically;
* **interruption** — with a checkpoint directory configured
  (``REPRO_CHECKPOINT_DIR`` or :attr:`ExecutionPolicy.checkpoint_dir`)
  every completed chunk is persisted atomically
  (:class:`~repro.util.checkpoint.CheckpointStore`); a resumed sweep
  reloads verified chunks and recomputes only the rest.

Determinism holds because chunk ``i``'s result is a pure function of
``(config, chunk seed i, chunk size i)``: retries, pool rebuilds,
degradation and resume all re-evaluate the *same* pure function, so
worker count, retry count and resume-vs-fresh never change results.
Every recovery path is testable via the deterministic
:class:`~repro.util.faults.FaultInjector`, which fails the chunk
attempts and pool rounds a test names — no wall clock, no randomness.

Pooled chunks always run on a :class:`SuitePool`: one persistent
``ProcessPoolExecutor`` whose own FIFO queue takes every chunk as it is
submitted, opened and closed by its caller.  A supervisor pools
only when :attr:`ExecutionPolicy.pool` holds such a pool (the suite
engine, :mod:`repro.experiments.suite`, shares one across figures) and
more than one chunk is pending; otherwise it runs its chunks
in-process.  Every pooled chunk result goes through the zero-copy
chunk transport (:mod:`repro.experiments.transport`): workers park
results of 64 KiB or more in shared memory and the supervisor decodes
them on consumption; the pool releases any abandoned segment on every
recovery path.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Future,
                                InvalidStateError, ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from threading import Lock
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.experiments.transport import (
    TransportStats,
    decode_chunk,
    encode_chunk,
    ensure_resource_tracker,
    release_chunk,
)
from repro.util.cache import ResultCache
from repro.util.checkpoint import CheckpointStore, checkpoint_dir_from_env
from repro.util.errors import ResumableInterrupt, TransientError
from repro.util.faults import FaultInjector
from repro.util.rng import SeedLike, spawn_seed_sequences

ChunkResult = Dict[str, np.ndarray]
ChunkFn = Callable[..., ChunkResult]
SubmitFn = Callable[..., Future]


class ExecutionDegradedWarning(RuntimeWarning):
    """Pool execution fell back to in-process after repeated pool deaths.

    Structured: carries the engine name, the number of pool failures
    observed, and the last failure's description, so callers can log or
    assert on the degradation instead of parsing a message.
    """

    def __init__(self, engine: str, pool_failures: int, reason: str) -> None:
        self.engine = engine
        self.pool_failures = pool_failures
        self.reason = reason
        super().__init__(
            f"engine {engine!r}: process pool failed {pool_failures} times "
            f"(last: {reason}); degrading to in-process execution — results "
            "are unchanged, throughput is not")


class ChunkExecutionError(TransientError, RuntimeError):
    """A chunk kept failing after exhausting its retry budget.

    Classified *transient* in the operator taxonomy: the computation is
    pure, so exhausted retries indicate environment (OOM, flaky node),
    and a rerun — resuming from checkpoints — may well succeed.
    """

    def __init__(self, engine: str, chunk_index: int, attempts: int,
                 last_error: BaseException) -> None:
        self.engine = engine
        self.chunk_index = chunk_index
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"engine {engine!r}: chunk {chunk_index} failed "
            f"{attempts} attempt(s); last error: {last_error!r}",
            hint=("completed chunks are checkpointed when "
                  "REPRO_CHECKPOINT_DIR is set; rerunning resumes from "
                  "them"))


class _PoolBroken(Exception):
    """Internal: the current pool round is unusable (rebuild or degrade)."""


@dataclass(frozen=True)
class Watchdog:
    """Hung-worker detection policy for pooled execution.

    ``chunk_deadline_s`` bounds any single chunk attempt; a chunk still
    running past it is declared hung and the pool round is broken (the
    rebuild resubmits the chunk, restarting its clock).
    ``heartbeat_interval_s`` bounds the gap between *any* two chunk
    completions — a pool that completes nothing within it is wedged.
    ``clock`` is injectable (``None`` means ``time.monotonic``), so
    watchdog decisions are testable with a scripted clock and never
    force tests to sleep.  Timing only ever decides *when* a chunk is
    recomputed, never *what* it computes, so the bit-identity invariant
    is untouched.
    """

    chunk_deadline_s: Optional[float] = None
    heartbeat_interval_s: Optional[float] = None
    clock: Optional[Callable[[], float]] = None

    def __post_init__(self) -> None:
        if self.chunk_deadline_s is not None and self.chunk_deadline_s <= 0:
            raise ValueError("chunk_deadline_s must be positive")
        if (self.heartbeat_interval_s is not None
                and self.heartbeat_interval_s <= 0):
            raise ValueError("heartbeat_interval_s must be positive")


class _WatchdogMonitor:
    """Per-pool-round watchdog state: chunk start times + last heartbeat."""

    def __init__(self, watchdog: Watchdog) -> None:
        self._deadline = watchdog.chunk_deadline_s
        self._heartbeat = watchdog.heartbeat_interval_s
        self._clock = watchdog.clock or time.monotonic
        self._last_beat = self._clock()
        self._starts: Dict[int, float] = {}

    def submitted(self, index: int) -> None:
        """A chunk attempt entered the pool; its deadline clock restarts."""
        self._starts[index] = self._clock()

    def completed(self, index: int) -> None:
        """A chunk attempt finished (success or failure): heartbeat."""
        self._starts.pop(index, None)
        self._last_beat = self._clock()

    def wait_timeout(self) -> Optional[float]:
        """How long the supervisor may block before it must re-check."""
        now = self._clock()
        cutoffs = []
        if self._heartbeat is not None:
            cutoffs.append(self._last_beat + self._heartbeat)
        if self._deadline is not None and self._starts:
            cutoffs.append(min(self._starts.values()) + self._deadline)
        if not cutoffs:
            return None
        return max(0.0, min(cutoffs) - now)

    def expired(self) -> Optional[str]:
        """A human-readable reason when a limit has been crossed."""
        now = self._clock()
        if (self._heartbeat is not None
                and now - self._last_beat >= self._heartbeat):
            return f"no worker progress within {self._heartbeat:g}s"
        if self._deadline is not None:
            for index in sorted(self._starts):
                if now - self._starts[index] >= self._deadline:
                    return (f"chunk {index} exceeded its "
                            f"{self._deadline:g}s deadline")
        return None


@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-tolerance knobs threaded through every batched engine.

    The default policy runs each chunk up to ``max_attempts`` times,
    resubmitting a failed attempt at once, rebuilds a broken pool up to
    ``max_pool_rebuilds`` times before degrading to in-process
    execution, and checkpoints only when a directory is configured.
    ``faults`` is the deterministic injector used by the resilience
    tests; production runs leave it ``None``.

    ``watchdog`` supervises pooled rounds for hung workers.

    ``pool`` plugs in a :class:`SuitePool` owned by the caller (the
    suite engine's): pooled rounds then submit chunks to that pool,
    labelled with the engine name, and a broken round asks it to
    rebuild.  Without one, every chunk runs in-process.
    ``transport_stats`` counts, parent-side, how pooled chunk results
    travelled (shared memory or pickle); the suite summary reads it.
    Neither field ever changes results — chunks stay pure functions of
    ``(config, seed, size)``.
    """

    max_attempts: int = 3
    max_pool_rebuilds: int = 2
    checkpoint_dir: Optional[Union[str, Path]] = None
    faults: Optional[FaultInjector] = None
    watchdog: Optional[Watchdog] = None
    pool: Optional[SuitePool] = None
    transport_stats: Optional[TransportStats] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")

    @classmethod
    def from_env(cls) -> "ExecutionPolicy":
        """Default policy plus ``$REPRO_CHECKPOINT_DIR`` when set."""
        return cls(checkpoint_dir=checkpoint_dir_from_env())


# ---------------------------------------------------------------------------
# Chunk layout (deterministic; shared with the engines' public helpers)
# ---------------------------------------------------------------------------

def chunk_sizes(n_samples: int, chunk_size: Optional[int]) -> List[int]:
    """Split ``n_samples`` into deterministic chunk lengths.

    ``chunk_size=None`` keeps the whole run in a single chunk (the
    draw-for-draw-compatible mode); otherwise full chunks of
    ``chunk_size`` plus one remainder chunk.
    """
    if chunk_size is None:
        return [n_samples]
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    full, remainder = divmod(n_samples, chunk_size)
    return [chunk_size] * full + ([remainder] if remainder else [])


def chunk_seeds(seed: SeedLike, n_chunks: int) -> List[SeedLike]:
    """Per-chunk seeds, independent of worker count.

    A single chunk consumes the caller's seed directly (so the batch
    matches the scalar reference stream); multiple chunks get spawned
    child ``SeedSequence`` objects, which are picklable and therefore
    cross process boundaries unchanged.
    """
    if n_chunks == 1:
        return [seed]
    return list(spawn_seed_sequences(seed, n_chunks))


def seed_cache_token(
        seed: SeedLike) -> Union[int, np.random.SeedSequence, None]:
    """A stable, hashable rendering of ``seed`` — or None if the seed
    cannot key a cache entry (OS entropy, stateful generators)."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, np.random.SeedSequence) and seed.entropy is not None:
        return seed
    return None


def chunk_starts(sizes: List[int]) -> List[int]:
    """Start offsets of each chunk in the merged item order."""
    starts: List[int] = []
    offset = 0
    for size in sizes:
        starts.append(offset)
        offset += size
    return starts


def _resolve_cache(cache: Optional[ResultCache]) -> ResultCache:
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache.from_env()


def _guarded_chunk(chunk_fn: ChunkFn, config: object, seed: SeedLike,
                   n: int, kwargs: Mapping[str, object],
                   faults: Optional[FaultInjector], engine: str,
                   chunk_index: int, attempt: int, pooled: bool = False
                   ) -> Union[ChunkResult, object]:
    """Evaluate one chunk attempt, applying injected faults first.

    Module-level (not a closure) so the pool can pickle it; runs inside
    the worker, so an injected fault exercises the same
    exception-through-``Future`` path a real crash does.  A ``pooled``
    attempt's result goes through :func:`encode_chunk`: it rides a
    shared-memory segment (descriptor returned) when the payload
    qualifies, and the supervisor decodes it on receipt.
    """
    if faults is not None:
        faults.check_chunk(engine, chunk_index, attempt)
    result = chunk_fn(config, seed, n, **kwargs)
    return encode_chunk(result) if pooled else result


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------

def _timed(fn: Callable[..., object],
           args: Tuple[object, ...]) -> Tuple[object, float]:
    """Run one pool task in the worker; return it with its duration.

    Timing inside the worker keeps executor queue wait out of the
    pool's busy time, so reported utilization never exceeds 100%.
    """
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def default_suite_workers() -> int:
    """Worker count of a :class:`SuitePool` opened without one."""
    return min(4, os.cpu_count() or 1)


def _fail_proxy(proxy: Future, exc: BaseException) -> None:
    """Deliver a failure unless the proxy already settled or was cancelled."""
    try:
        proxy.set_exception(exc)
    except InvalidStateError:
        pass


class _SuiteRound:
    """One supervisor round's view of the pool.

    ``submit`` chunks, declare the round ``broken`` to request a pool
    rebuild, ``abandon`` leftovers so their transported results are
    released whenever they land.
    """

    def __init__(self, pool: SuitePool, lane: str, generation: int) -> None:
        self._pool = pool
        self._lane = lane
        self._generation = generation

    def submit(self, fn: Callable[..., object], *args: object) -> Future:
        return self._pool._submit(self._lane, fn, args)

    def broken(self) -> None:
        self._pool._rebuild(self._generation)

    def abandon(self, futures: List[Future]) -> None:
        self._pool._abandon(futures)


class SuitePool:
    """A persistent supervised worker pool, owned by whoever opens it.

    Supervisors reach it through :attr:`ExecutionPolicy.pool` and
    submit chunks through :meth:`open_round`; each chunk goes straight
    to one long-lived ``ProcessPoolExecutor``, whose FIFO queue is the
    only queue.  A round's lane is only the label its chunks are
    counted under in ``stats()["lanes"]``.  Callers receive proxy
    futures with ordinary ``concurrent.futures`` semantics, so the
    supervisor's drain loop works on them untouched.

    A chunk cancelled before it started (by a rebuild or by
    :meth:`close`) surfaces on its proxy as ``BrokenProcessPool``,
    never ``CancelledError``.  ``CancelledError`` is an ``Exception``,
    so the drain loop would count it as a failed chunk, spend the
    chunk's retry budget and resubmit it, instead of raising
    :class:`_PoolBroken` and rebuilding.
    """

    def __init__(self, n_workers: Optional[int] = None) -> None:
        self.workers = n_workers if n_workers is not None \
            else default_suite_workers()
        if self.workers < 1:
            raise ValueError("n_workers must be positive")
        self._lock = Lock()
        #: Proxy -> executor future, for every chunk not yet settled.
        self._pending: Dict[Future, Future] = {}
        self._generation = 0
        self._closed = False
        self._interrupt: Optional[BaseException] = None
        self._tasks_done = 0
        self._busy_s = 0.0
        self._rebuilds = 0
        self._lane_done: Dict[str, int] = {}
        self._retired: List[ProcessPoolExecutor] = []
        self._created_at = time.monotonic()
        self._executor = self._new_executor()
        # Fork every worker *now*, before figure threads exist — forking
        # a many-threaded parent mid-run is the risky path.  Under the
        # fork start method the first submit starts every worker, so
        # no-op tasks suffice.
        wait([self._executor.submit(os.getpid)
              for _ in range(self.workers)], timeout=60.0)

    # -- lifecycle ---------------------------------------------------------

    def _new_executor(self) -> ProcessPoolExecutor:
        # The tracker must exist before workers fork, or worker-created
        # shared-memory segments register with per-worker trackers the
        # parent's unlink never reaches (spurious leak warnings).
        ensure_resource_tracker()
        return ProcessPoolExecutor(max_workers=self.workers)

    def __enter__(self) -> SuitePool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down; idempotent.

        Queued chunks fail with ``BrokenProcessPool``; in-flight chunks
        finish (their results are delivered or released as usual), then
        every executor this pool ever owned is joined.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executors = [self._executor] + self._retired
            self._retired = []
        for executor in executors:
            executor.shutdown(wait=True, cancel_futures=True)

    def interrupt(self, exc: BaseException) -> None:
        """Fail every chunk that has not started with ``exc``.

        In-flight chunks are left to finish; each figure's supervisor
        sees ``exc`` on its next proxy result, flushes its completed
        chunks to the checkpoint store, and unwinds resumably.
        """
        with self._lock:
            self._interrupt = exc
            queued = list(self._pending.values())
        for underlying in queued:
            underlying.cancel()

    # -- supervisor-facing API ---------------------------------------------

    def open_round(self, lane: str) -> _SuiteRound:
        """A round handle whose chunks are counted under ``lane``."""
        with self._lock:
            return _SuiteRound(self, lane, self._generation)

    def stats(self) -> Dict[str, object]:
        """Utilization snapshot for the suite summary.

        ``busy_s`` sums the worker-side run time of every chunk that
        returned, so queue wait never counts as work.  ``tasks_done``
        and ``lanes`` count the chunks the workers settled; a chunk
        cancelled before it started is not counted.
        """
        with self._lock:
            wall_s = time.monotonic() - self._created_at
            busy_s = self._busy_s
            capacity = wall_s * self.workers
            return {
                "workers": self.workers,
                "tasks_done": self._tasks_done,
                "busy_s": busy_s,
                "wall_s": wall_s,
                "rebuilds": self._rebuilds,
                "utilization": busy_s / capacity if capacity > 0 else 0.0,
                "lanes": dict(self._lane_done),
            }

    # -- internal ----------------------------------------------------------

    def _submit(self, lane: str, fn: Callable[..., object],
                args: Tuple[object, ...]) -> Future:
        proxy: Future = Future()
        with self._lock:
            if self._interrupt is not None:
                _fail_proxy(proxy, self._interrupt)
                return proxy
            if self._closed:
                _fail_proxy(proxy, BrokenProcessPool("suite pool closed"))
                return proxy
            try:
                underlying = self._executor.submit(_timed, fn, args)
            except RuntimeError as exc:  # a broken or shut-down executor
                _fail_proxy(proxy, BrokenProcessPool(
                    str(exc) or type(exc).__name__))
                return proxy
            self._pending[proxy] = underlying
        # Outside the lock: a future that is already done runs the
        # callback here, and the callback takes the lock.
        underlying.add_done_callback(partial(self._on_done, proxy, lane))
        return proxy

    def _abandon(self, futures: List[Future]) -> None:
        """Disown proxies whose results nobody will consume."""
        with self._lock:
            underlying = [self._pending.get(future) for future in futures]
        for future, chunk in zip(futures, underlying):
            future.cancel()
            if chunk is not None:
                chunk.cancel()
            if future.done() and not future.cancelled() \
                    and future.exception() is None:
                release_chunk(future.result())

    def _rebuild(self, generation: int) -> None:
        """Replace the executor, once per generation.

        Every round that broke against the same executor calls this
        with the same generation; the first call swaps the
        executor, the rest are no-ops against the already-bumped
        counter.
        """
        with self._lock:
            if generation != self._generation or self._closed:
                return
            old = self._executor
            self._generation += 1
            self._rebuilds += 1
            self._executor = self._new_executor()
            self._retired.append(old)
        old.shutdown(wait=False, cancel_futures=True)

    def _on_done(self, proxy: Future, lane: str, underlying: Future) -> None:
        cancelled = underlying.cancelled()
        with self._lock:
            del self._pending[proxy]
            interrupt = self._interrupt
            if not cancelled:
                self._tasks_done += 1
                self._lane_done[lane] = self._lane_done.get(lane, 0) + 1
        if cancelled:  # before it started: interrupt, rebuild or close
            _fail_proxy(proxy, interrupt if interrupt is not None else
                        BrokenProcessPool("suite pool rebuilt or closed "
                                          "while the chunk was queued"))
            return
        failure = underlying.exception()
        if failure is not None:
            _fail_proxy(proxy, failure)
            return
        result, busy_s = underlying.result()
        with self._lock:
            self._busy_s += busy_s
        try:
            proxy.set_result(result)
        except InvalidStateError:  # abandoned: nobody will decode it
            release_chunk(result)


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------

class _Supervisor:
    """Drives one sweep's chunks to completion despite faults."""

    def __init__(self, engine: str, chunk_fn: ChunkFn, config: object,
                 seeds: List[SeedLike], sizes: List[int],
                 kwargs: Mapping[str, object], policy: ExecutionPolicy,
                 checkpoint: Optional[CheckpointStore]) -> None:
        self.engine = engine
        self.chunk_fn = chunk_fn
        self.config = config
        self.seeds = seeds
        self.sizes = sizes
        self.kwargs = kwargs
        self.policy = policy
        self.checkpoint = checkpoint
        self.results: Dict[int, ChunkResult] = {}
        #: Attempt number the next invocation of each chunk will carry.
        self.next_attempt: Dict[int, int] = {}
        self.pool_failures = 0
        self.pool_round = 0

    # -- shared bookkeeping -----------------------------------------------

    def pending(self) -> List[int]:
        return [i for i in range(len(self.sizes)) if i not in self.results]

    def _restore_checkpointed(self) -> None:
        if self.checkpoint is None:
            return
        for index in self.checkpoint.completed_chunks():
            chunk = self.checkpoint.get_chunk(index)
            if chunk is not None:
                self.results[index] = chunk

    def _finish_chunk(self, index: int, chunk: ChunkResult) -> None:
        self.results[index] = chunk
        if self.checkpoint is not None:
            self.checkpoint.put_chunk(index, chunk)

    def _submit_args(self, index: int, pooled: bool = False) -> tuple:
        attempt = self.next_attempt.setdefault(index, 1)
        return (self.chunk_fn, self.config, self.seeds[index],
                self.sizes[index], self.kwargs, self.policy.faults,
                self.engine, index, attempt, pooled)

    def _decoded(self, raw: object) -> ChunkResult:
        """Materialise a pooled result (shared-memory or pickled)."""
        return decode_chunk(raw, self.policy.transport_stats)

    def _record_chunk_failure(self, index: int, exc: BaseException) -> None:
        """Book a failed attempt; raise when the retry budget is gone."""
        attempt = self.next_attempt.get(index, 1)
        if attempt >= self.policy.max_attempts:
            raise ChunkExecutionError(self.engine, index, attempt, exc)
        self.next_attempt[index] = attempt + 1

    # -- execution modes --------------------------------------------------

    def run(self) -> Dict[int, ChunkResult]:
        self._restore_checkpointed()
        if len(self.pending()) > 1 and self.policy.pool is not None:
            self._run_pooled(self.policy.pool)
        self._run_inline()
        return self.results

    def _run_inline(self) -> None:
        for index in self.pending():
            while True:
                try:
                    chunk = _guarded_chunk(*self._submit_args(index))
                except Exception as exc:  # anything a worker can die of
                    self._record_chunk_failure(index, exc)
                else:
                    self._finish_chunk(index, chunk)
                    break

    def _run_pooled(self, pool: SuitePool) -> None:
        """Pool rounds with rebuild-on-break; degrades after the budget."""
        while len(self.pending()) > 1:
            try:
                self._pool_round(pool)
                return
            except _PoolBroken as exc:
                self.pool_failures += 1
                if self.pool_failures > self.policy.max_pool_rebuilds:
                    warnings.warn(
                        ExecutionDegradedWarning(
                            self.engine, self.pool_failures, str(exc)),
                        stacklevel=2)
                    return  # the inline pass finishes the sweep

    def _pool_round(self, pool: SuitePool) -> None:
        """One round on the pool: submit all pending chunks, drain.

        Raises :class:`_PoolBroken` when the pool dies (for real, or by
        injection) so the caller can rebuild with only missing chunks.
        """
        round_index = self.pool_round
        self.pool_round += 1
        faults = self.policy.faults
        if faults is not None and faults.should_break_pool(round_index):
            raise _PoolBroken(f"injected pool break (round {round_index})")
        handle = pool.open_round(self.engine)
        submit = handle.submit
        monitor = None
        if self.policy.watchdog is not None:
            monitor = _WatchdogMonitor(self.policy.watchdog)
        futures: Dict[Future, int] = {}
        try:
            for index in self.pending():
                futures[submit(
                    _guarded_chunk,
                    *self._submit_args(index, pooled=True))] = index
                if monitor is not None:
                    monitor.submitted(index)
            self._drain(submit, futures, monitor)
        except BrokenExecutor as exc:
            handle.broken()
            raise _PoolBroken(str(exc) or type(exc).__name__) from exc
        except _PoolBroken:
            handle.broken()
            raise
        finally:
            # Futures may still be in flight; the pool releases their
            # transported results on arrival.
            handle.abandon(list(futures))

    def _drain(self, submit: SubmitFn,
               futures: Dict[Future, int],
               monitor: Optional[_WatchdogMonitor]) -> None:
        try:
            self._drain_inner(submit, futures, monitor)
        except (KeyboardInterrupt, ResumableInterrupt):
            # Operator interrupt: flush every chunk whose future already
            # completed into the checkpoint store, then let the
            # interrupt propagate — the run exits "resumable" having
            # lost only the chunks still in flight.
            self._flush_completed(futures)
            raise

    def _drain_inner(self, submit: SubmitFn,
                     futures: Dict[Future, int],
                     monitor: Optional[_WatchdogMonitor]) -> None:
        while futures:
            timeout = monitor.wait_timeout() if monitor is not None else None
            done, _ = wait(frozenset(futures), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            for future in done:
                index = futures.pop(future)
                if monitor is not None:
                    monitor.completed(index)
                try:
                    chunk = future.result()
                except BrokenExecutor:
                    # Put the future back so the round's cleanup path
                    # (abandon / release) still covers its result.
                    futures[future] = index
                    raise
                except Exception as exc:  # anything a worker can die of
                    self._record_chunk_failure(index, exc)
                    futures[submit(
                        _guarded_chunk,
                        *self._submit_args(index, pooled=True))] = index
                    if monitor is not None:
                        monitor.submitted(index)
                else:
                    self._finish_chunk(index, self._decoded(chunk))
            if monitor is not None:
                reason = monitor.expired()
                if reason is not None:
                    for future in futures:
                        future.cancel()
                    raise _PoolBroken(reason)

    def _flush_completed(self, futures: Dict[Future, int]) -> None:
        """Persist chunks whose futures already finished successfully."""
        for future, index in list(futures.items()):
            if not future.done() or future.cancelled():
                continue
            if future.exception() is None:
                del futures[future]
                self._finish_chunk(index, self._decoded(future.result()))


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def run_chunked(engine: str, chunk_fn: ChunkFn, config, seed: SeedLike, *,
                code_version: int,
                chunk_size: Optional[int] = None,
                cache: Optional[ResultCache] = None,
                kwargs: Optional[Mapping[str, object]] = None,
                policy: Optional[ExecutionPolicy] = None) -> ChunkResult:
    """Run one batched engine under supervision; return merged arrays.

    ``chunk_fn(config, seed, n, **kwargs)`` evaluates one chunk of
    ``n`` draws and returns named 1-D arrays; chunks are concatenated
    in index order, so the merged arrays depend only on
    ``(seed, n_samples, chunk_size)`` — never on ``policy.pool``, retry
    outcomes, or whether the run resumed from a checkpoint.
    """
    kwargs = dict(kwargs or {})
    sizes = chunk_sizes(config.n_samples, chunk_size)
    token = seed_cache_token(seed)

    run_key = None
    if token is not None:
        run_key = {"engine": engine,
                   "code_version": code_version,
                   "config": _config_key(config),
                   "seed": token,
                   "chunk_sizes": sizes,
                   "kwargs": kwargs}

    # Seeds are spawned only on a cache miss, so a cached call leaves a
    # caller's SeedSequence untouched.
    return _run_supervised(engine, chunk_fn, config, sizes, kwargs,
                           run_key, partial(chunk_seeds, seed, len(sizes)),
                           cache, policy)


def run_indexed(engine: str, chunk_fn: ChunkFn, config, n_items: int, *,
                code_version: int,
                cache_key: Optional[Mapping[str, object]] = None,
                chunk_size: Optional[int] = None,
                cache: Optional[ResultCache] = None,
                kwargs: Optional[Mapping[str, object]] = None,
                policy: Optional[ExecutionPolicy] = None) -> ChunkResult:
    """Run an *indexed map* under supervision; return merged arrays.

    The seeded-sweep counterpart of :func:`run_chunked` for workloads
    whose randomness was already drawn: ``chunk_fn(config, start, n,
    **kwargs)`` deterministically evaluates items ``[start, start + n)``
    of a precomputed sequence (trace snapshots, scenario index tables)
    and returns named arrays with ``n`` leading rows.  Chunks merge in
    index order, so the result is **independent of chunking and worker
    count** — the trace pipeline pins serial == parallel == cached
    bit-identity on exactly this property.

    Retries, pool rebuild/degradation, worker timeouts and
    checkpoint/resume behave as in :func:`run_chunked`.  ``cache_key``
    is the caller's description of what determines the items (e.g.
    trace config + seed); when ``None`` the run is treated as
    uncacheable — no result cache, no checkpoints.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    kwargs = dict(kwargs or {})
    sizes = chunk_sizes(n_items, chunk_size)
    if not sizes:  # n_items == 0 with a finite chunk_size
        sizes = [0]

    run_key = None
    if cache_key is not None:
        run_key = {"engine": engine,
                   "code_version": code_version,
                   "mode": "indexed",
                   "key": dict(cache_key),
                   "chunk_sizes": sizes,
                   "kwargs": kwargs}

    # Start offsets ride in the supervisor's per-chunk seed slot: chunk
    # i evaluates the pure function (config, starts[i], sizes[i]).
    return _run_supervised(engine, chunk_fn, config, sizes, kwargs,
                           run_key, partial(chunk_starts, sizes),
                           cache, policy)


def _run_supervised(engine: str, chunk_fn: ChunkFn, config: object,
                    sizes: List[int], kwargs: Mapping[str, object],
                    run_key: Optional[Mapping[str, object]],
                    make_seeds: Callable[[], List[SeedLike]],
                    cache: Optional[ResultCache],
                    policy: Optional[ExecutionPolicy]) -> ChunkResult:
    """Serve ``run_key`` from the cache, or supervise, merge and store.

    ``run_key`` (``None`` when the run cannot be replayed) keys both the
    result cache and the checkpoint store; ``make_seeds`` yields each
    chunk's seed slot and is called only when the chunks must run.
    """
    policy = policy if policy is not None else ExecutionPolicy.from_env()
    store = _resolve_cache(cache)
    key = run_key if store.enabled else None
    if key is not None:
        cached = store.get(key)
        if cached is not None:
            return cached

    checkpoint = None
    if policy.checkpoint_dir is not None and run_key is not None:
        checkpoint = CheckpointStore(policy.checkpoint_dir, run_key,
                                     n_chunks=len(sizes))

    supervisor = _Supervisor(engine, chunk_fn, config, make_seeds(), sizes,
                             kwargs, policy, checkpoint)
    chunks = supervisor.run()

    merged = _merge_chunks(chunks, len(sizes))
    if key is not None:
        store.put(key, merged)
    return merged


def _merge_chunks(chunks: Dict[int, ChunkResult],
                  n_chunks: int) -> ChunkResult:
    """Concatenate per-chunk arrays in index order."""
    return {name: np.concatenate([chunks[i][name]
                                  for i in range(n_chunks)])
            for name in chunks[0]}


def _config_key(config) -> Mapping[str, object]:
    """The cache/checkpoint rendering of an engine config dataclass."""
    return asdict(config)

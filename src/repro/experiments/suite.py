"""Suite execution engine: one shared worker pool across all figures.

``python -m repro.experiments all`` used to run the figures strictly
one after another, each supervised ``compute()`` draining its own
worker pool while every other figure's work sat idle.  This module
runs them concurrently over **one shared pool**:

* :func:`run_suite` runs one thread per requested figure, in registry
  (paper) order, each calling the ordinary
  :func:`repro.experiments.registry.run_experiment`; a figure whose
  registry entry is ``pooled`` picks the shared
  :class:`repro.experiments.runner.SuitePool` up through
  :attr:`repro.experiments.runner.ExecutionPolicy.pool`, so every
  supervisor invariant (retries, watchdog, pool-rebuild escalation,
  checkpoint/resume, worker-count-invariant cache keys) holds
  unchanged — only *where* chunks execute moves;
* every figure submits its chunks straight to the pool's one
  ``ProcessPoolExecutor``, whose FIFO queue runs them in submission
  order; the figure threads interleave their submissions, so a slow
  figure (fig13 trace eval) runs beside fast ones instead of after
  them.

Determinism: a chunk result is a pure function of
``(config, chunk seed, chunk size)``, and the suite never alters a
figure's chunk layout or seeds — it only reorders *where and when*
chunks run.  Suite-mode outputs are therefore bit-identical to
per-figure sequential runs for any worker count or interleaving
(pinned by the golden tests in ``tests/experiments/test_suite.py``).

Transport: like every pooled run, a suite run ships each chunk result
of 64 KiB or more through shared memory
(:mod:`repro.experiments.transport`) instead of pickling it.  No chunk
of a CLI run at default or ``--quick`` scale is that large: paper-scale
``all`` pickles every chunk.  A :class:`TransportStats` counter feeds
the suite summary (per-figure wall time, pool utilization, transport
bytes).

Failure semantics: a broken round (``BrokenProcessPool``, watchdog
trip, injected break) asks the pool to rebuild its executor once for
every figure — generation counters make concurrent rebuild requests
idempotent.  The rebuild fails every chunk still queued on the old
executor with ``BrokenProcessPool``, whichever figure it belongs to,
and each such figure resubmits its missing chunks to the new one.
Operator interrupts fail every chunk that has not started with the
interrupt, so each figure's supervisor flushes completed chunks to its
checkpoint store and the run exits "resumable".  Abandoned
shared-memory results are released on every path (see
``release_chunk``) so no segment outlives the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from threading import Thread
from typing import Dict, List, Mapping, Optional

from repro.experiments.registry import (
    REGISTRY,
    ExperimentRun,
    run_experiment,
)
from repro.experiments.runner import ExecutionPolicy, SuitePool
from repro.experiments.transport import TransportStats


@dataclass
class FigureOutcome:
    """One figure's result within a suite run."""

    figure: str
    run: Optional[ExperimentRun]
    wall_s: float
    error: Optional[BaseException] = None


@dataclass
class SuiteResult:
    """Everything a suite run produced, in paper order."""

    outcomes: List[FigureOutcome]
    pool_stats: Dict[str, object]
    transport: Dict[str, int]
    wall_s: float

    def runs(self) -> Dict[str, ExperimentRun]:
        """Successful figure runs keyed by figure id."""
        return {outcome.figure: outcome.run for outcome in self.outcomes
                if outcome.run is not None}

    def summary_lines(self) -> List[str]:
        """The suite-level timing/transport summary the CLI prints."""
        stats = self.pool_stats
        lines = [
            f"== suite: {len(self.outcomes)} figures, "
            f"{stats['workers']} workers, {self.wall_s:.2f}s wall =="]
        serial_s = sum(outcome.wall_s for outcome in self.outcomes)
        for outcome in self.outcomes:
            status = "ok" if outcome.error is None else (
                f"FAILED ({type(outcome.error).__name__})")
            lines.append(
                f"  {outcome.figure:>6}: {outcome.wall_s:7.2f}s {status}")
        lines.append(
            f"  figure-seconds {serial_s:.2f}s in {self.wall_s:.2f}s wall "
            f"(overlap {serial_s / self.wall_s:.2f}x)"
            if self.wall_s > 0 else
            f"  figure-seconds {serial_s:.2f}s")
        lines.append(
            "  pool: utilization {:.1%} (busy {:.2f}s / {} workers), "
            "{} chunks, {} rebuilds".format(
                stats["utilization"], stats["busy_s"], stats["workers"],
                stats["tasks_done"], stats["rebuilds"]))
        lines.append(
            "  transport: {shm_chunks} chunks / {shm_kib:.0f} KiB "
            "shared-memory, {pickled_chunks} chunks / {pickled_kib:.0f} "
            "KiB pickled".format(
                shm_chunks=self.transport["shm_chunks"],
                shm_kib=self.transport["shm_bytes"] / 1024,
                pickled_chunks=self.transport["pickled_chunks"],
                pickled_kib=self.transport["pickled_bytes"] / 1024))
        return lines


def run_suite(figures: Optional[List[str]] = None,
              kwargs_by_figure: Optional[Mapping[str, Mapping[str, object]]]
              = None, *,
              n_workers: Optional[int] = None,
              policy: Optional[ExecutionPolicy] = None,
              pool: Optional[SuitePool] = None) -> SuiteResult:
    """Run a set of figures concurrently over one shared pool.

    Each requested figure runs once, on its own thread, through the
    registry's single dispatch point with exactly the caller's kwargs —
    chunk layouts and seeds are untouched, so per-figure results are
    bit-identical to calling ``compute()`` directly with the same
    kwargs.  Outcomes come back in registry (paper) order.  A figure
    whose registry entry is ``pooled`` also receives ``policy`` (default
    :meth:`ExecutionPolicy.from_env`) carrying the shared pool and the
    suite's transport counters (unless the caller already pinned a
    ``policy`` kwarg for that figure).

    Figure errors are collected so every figure gets to finish; the
    first failure in paper order is re-raised after all threads settle.
    A ``pool`` passed in is borrowed (left open); otherwise one is
    created and closed here.
    """
    requested = list(REGISTRY if figures is None else figures)
    unknown = [figure for figure in requested if figure not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown figures: {', '.join(unknown)}")
    requested = [figure for figure in REGISTRY if figure in requested]
    kwargs_by_figure = kwargs_by_figure or {}

    own_pool = pool is None
    suite_pool = pool if pool is not None else SuitePool(n_workers)
    stats = TransportStats()
    base_policy = policy if policy is not None else ExecutionPolicy.from_env()
    suite_policy = replace(base_policy, pool=suite_pool,
                           transport_stats=stats)

    outcomes = {figure: FigureOutcome(figure, None, 0.0)
                for figure in requested}

    def _figure_body(figure: str) -> None:
        outcome = outcomes[figure]
        kwargs = dict(kwargs_by_figure.get(figure, {}))
        if REGISTRY[figure].pooled:
            kwargs.setdefault("policy", suite_policy)
        start = time.perf_counter()
        try:
            outcome.run = run_experiment(figure, **kwargs)
        except BaseException as exc:  # collected; re-raised in paper order
            outcome.error = exc
        finally:
            outcome.wall_s = time.perf_counter() - start

    suite_start = time.perf_counter()
    threads = [Thread(target=_figure_body, args=(figure,),
                      name=f"suite-{figure}") for figure in requested]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    except BaseException as exc:  # operator interrupt in the main thread
        suite_pool.interrupt(exc)
        for thread in threads:
            thread.join(timeout=60.0)
        raise
    finally:
        if own_pool:
            suite_pool.close()

    result = SuiteResult(
        outcomes=[outcomes[figure] for figure in requested],
        pool_stats=suite_pool.stats(),
        transport=stats.as_dict(),
        wall_s=time.perf_counter() - suite_start)

    for outcome in result.outcomes:
        if outcome.error is not None:
            raise outcome.error
    return result


__all__ = [
    "FigureOutcome",
    "SuiteResult",
    "run_suite",
]

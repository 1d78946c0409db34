"""Hung-worker watchdog and operator-interrupt flushing.

The watchdog's *decisions* are pinned with scripted clocks — no test
here sleeps to trigger a deadline.  The two pooled integration tests
use a genuinely slow worker once each to prove the wiring end to end,
and the interrupt tests drive ``_flush_completed``/``_drain`` directly
with already-resolved futures.  In every case timing only decides when
a chunk is recomputed, never what it computes, so each test closes by
asserting bit-identity against a fault-free run.
"""

import signal
from concurrent.futures import Future

import numpy as np
import pytest

from repro.experiments.runner import (
    ExecutionDegradedWarning,
    ExecutionPolicy,
    Watchdog,
    _Supervisor,
    _WatchdogMonitor,
    run_chunked,
    run_indexed,
)
from repro.util.checkpoint import CheckpointStore
from repro.util.errors import ResumableInterrupt
from tests.conftest import run_pooled
from tests.experiments.test_runner_faults import (
    _TinyConfig,
    _slow_once_chunk,
)


class _ScriptedClock:
    """A deterministic clock the test advances by hand."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now


class TestWatchdogPolicy:
    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ValueError):
            Watchdog(chunk_deadline_s=0.0)
        with pytest.raises(ValueError):
            Watchdog(heartbeat_interval_s=-1.0)


class TestMonitorDecisions:
    """Scripted-clock units: deadline and heartbeat logic, no sleeping."""

    def test_chunk_deadline_expiry(self):
        clock = _ScriptedClock()
        monitor = _WatchdogMonitor(
            Watchdog(chunk_deadline_s=10.0, clock=clock))
        monitor.submitted(3)
        clock.now = 9.9
        assert monitor.expired() is None
        clock.now = 10.0
        assert monitor.expired() == "chunk 3 exceeded its 10s deadline"

    def test_completion_disarms_the_chunk_deadline(self):
        clock = _ScriptedClock()
        monitor = _WatchdogMonitor(
            Watchdog(chunk_deadline_s=10.0, clock=clock))
        monitor.submitted(0)
        clock.now = 8.0
        monitor.completed(0)
        clock.now = 25.0  # long after the old deadline: nothing running
        assert monitor.expired() is None

    def test_resubmission_restarts_the_deadline(self):
        clock = _ScriptedClock()
        monitor = _WatchdogMonitor(
            Watchdog(chunk_deadline_s=10.0, clock=clock))
        monitor.submitted(0)
        clock.now = 8.0
        monitor.completed(0)  # failed attempt drained...
        monitor.submitted(0)  # ...and retried: fresh clock
        clock.now = 17.0
        assert monitor.expired() is None
        clock.now = 18.0
        assert "chunk 0" in monitor.expired()

    def test_heartbeat_expiry(self):
        clock = _ScriptedClock()
        monitor = _WatchdogMonitor(
            Watchdog(heartbeat_interval_s=5.0, clock=clock))
        clock.now = 4.9
        assert monitor.expired() is None
        clock.now = 5.0
        assert monitor.expired() == "no worker progress within 5s"

    def test_any_completion_feeds_the_heartbeat(self):
        clock = _ScriptedClock()
        monitor = _WatchdogMonitor(
            Watchdog(heartbeat_interval_s=5.0, clock=clock))
        monitor.submitted(0)
        monitor.submitted(1)
        clock.now = 4.0
        monitor.completed(1)
        clock.now = 8.9  # 4.9 since the last beat
        assert monitor.expired() is None
        clock.now = 9.0
        assert monitor.expired() is not None

    def test_wait_timeout_tracks_nearest_cutoff(self):
        clock = _ScriptedClock()
        monitor = _WatchdogMonitor(Watchdog(
            chunk_deadline_s=10.0, heartbeat_interval_s=4.0, clock=clock))
        monitor.submitted(0)
        assert monitor.wait_timeout() == 4.0  # heartbeat is nearer
        clock.now = 3.0
        monitor.completed(0)
        monitor.submitted(1)
        clock.now = 6.0
        # heartbeat cutoff 3+4=7 (1s away), deadline cutoff 3+10=13.
        assert monitor.wait_timeout() == pytest.approx(1.0)

    def test_wait_timeout_never_negative(self):
        clock = _ScriptedClock()
        monitor = _WatchdogMonitor(
            Watchdog(heartbeat_interval_s=2.0, clock=clock))
        clock.now = 50.0
        assert monitor.wait_timeout() == 0.0

    def test_unlimited_monitor_waits_forever(self):
        monitor = _WatchdogMonitor(
            Watchdog(clock=_ScriptedClock()))
        assert monitor.wait_timeout() is None
        assert monitor.expired() is None

    def test_earliest_overdue_chunk_reported(self):
        clock = _ScriptedClock()
        monitor = _WatchdogMonitor(
            Watchdog(chunk_deadline_s=5.0, clock=clock))
        monitor.submitted(7)
        clock.now = 1.0
        monitor.submitted(2)
        clock.now = 6.5  # both overdue; lowest index reported
        assert "chunk 2" in monitor.expired() or "chunk 7" in monitor.expired()
        assert monitor.expired().startswith("chunk 2")


class TestPooledIntegration:
    """One genuinely hung worker, caught and recovered end to end."""

    def test_chunk_deadline_breaks_and_recovers(self, tmp_path):
        policy = ExecutionPolicy(
            watchdog=Watchdog(chunk_deadline_s=0.2), max_pool_rebuilds=0)
        ref = run_chunked("slow", _slow_once_chunk, _TinyConfig(), 11,
                          code_version=0, chunk_size=50,
                          kwargs={"marker_dir": str(tmp_path)})
        (tmp_path / "slept").unlink()  # re-arm the slow first call
        with pytest.warns(ExecutionDegradedWarning) as record:
            out = run_pooled(2, run_chunked, "slow", _slow_once_chunk,
                             _TinyConfig(), 11, code_version=0,
                             chunk_size=50,
                             kwargs={"marker_dir": str(tmp_path)},
                             policy=policy)
        assert np.array_equal(out["x"], ref["x"])
        assert "deadline" in record[0].message.reason

    def test_run_indexed_honours_the_watchdog(self, tmp_path):
        policy = ExecutionPolicy(
            watchdog=Watchdog(heartbeat_interval_s=0.2),
            max_pool_rebuilds=0)
        ref = run_indexed("slow-idx", _slow_once_chunk, _TinyConfig(), 250,
                          code_version=0, chunk_size=50,
                          kwargs={"marker_dir": str(tmp_path)})
        (tmp_path / "slept").unlink()
        with pytest.warns(ExecutionDegradedWarning) as record:
            out = run_pooled(2, run_indexed, "slow-idx", _slow_once_chunk,
                             _TinyConfig(), 250, code_version=0,
                             chunk_size=50,
                             kwargs={"marker_dir": str(tmp_path)},
                             policy=policy)
        assert np.array_equal(out["x"], ref["x"])
        assert "no worker progress" in record[0].message.reason


def _resolved_future(value):
    future = Future()
    future.set_result(value)
    return future


def _failed_future(exc):
    future = Future()
    future.set_exception(exc)
    return future


def _supervisor_with_store(tmp_path, n_chunks=3):
    store = CheckpointStore(tmp_path, {"engine": "t", "seed": 1}, n_chunks)
    supervisor = _Supervisor(
        engine="t", chunk_fn=lambda config, seed, n: {"x": np.ones(n)},
        config=_TinyConfig(), seeds=list(range(n_chunks)),
        sizes=[4] * n_chunks, kwargs={}, policy=ExecutionPolicy(),
        checkpoint=store)
    return supervisor, store


class TestInterruptFlush:
    """SIGINT mid-drain persists every already-finished chunk."""

    def test_flush_completed_persists_done_futures(self, tmp_path):
        supervisor, store = _supervisor_with_store(tmp_path)
        futures = {
            _resolved_future({"x": np.full(4, 1.5)}): 0,
            _failed_future(RuntimeError("worker died")): 1,
            Future(): 2,  # still pending: must be skipped, not awaited
        }
        supervisor._flush_completed(futures)
        fresh = CheckpointStore(tmp_path, {"engine": "t", "seed": 1}, 3)
        assert np.array_equal(fresh.get_chunk(0)["x"], np.full(4, 1.5))
        assert fresh.get_chunk(1) is None
        assert fresh.get_chunk(2) is None

    def test_drain_flushes_then_reraises_interrupt(self, tmp_path):
        supervisor, store = _supervisor_with_store(tmp_path)
        futures = {_resolved_future({"x": np.full(4, 2.5)}): 0}

        def interrupted(pool, futures_, monitor):
            raise ResumableInterrupt(signal.SIGINT)

        supervisor._drain_inner = interrupted
        with pytest.raises(ResumableInterrupt):
            supervisor._drain(None, futures, None)
        fresh = CheckpointStore(tmp_path, {"engine": "t", "seed": 1}, 3)
        assert np.array_equal(fresh.get_chunk(0)["x"], np.full(4, 2.5))

    def test_drain_flushes_on_keyboard_interrupt_too(self, tmp_path):
        supervisor, store = _supervisor_with_store(tmp_path)
        futures = {_resolved_future({"x": np.zeros(4)}): 0}

        def interrupted(pool, futures_, monitor):
            raise KeyboardInterrupt()

        supervisor._drain_inner = interrupted
        with pytest.raises(KeyboardInterrupt):
            supervisor._drain(None, futures, None)
        fresh = CheckpointStore(tmp_path, {"engine": "t", "seed": 1}, 3)
        assert fresh.get_chunk(0) is not None

    def test_flushed_chunks_resume_bit_identically(self, tmp_path):
        # The flushed chunk must be indistinguishable from one persisted
        # by an uninterrupted run: a resumed supervisor reloads it and
        # the merged sweep equals the fault-free reference.
        supervisor, store = _supervisor_with_store(tmp_path)
        chunk = {"x": np.arange(4.0)}
        supervisor._flush_completed({_resolved_future(chunk): 1})
        resumed, _ = _supervisor_with_store(tmp_path)
        resumed._restore_checkpointed()
        assert 1 in resumed.results
        assert np.array_equal(resumed.results[1]["x"], chunk["x"])
        assert resumed.pending() == [0, 2]

"""Pooled runs on a pool the caller opens for one call.

``run_pooled`` opens a :class:`~repro.experiments.runner.SuitePool`,
hands it to the call through ``ExecutionPolicy.pool`` and closes it
when the call ends.  An operator interrupt must stop such a run
promptly instead of draining every queued chunk first, and every run,
whatever its outcome, must leave no worker process, thread or
shared-memory segment behind once the pool is closed.
"""

import _thread
import multiprocessing
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import (
    ChunkExecutionError,
    ExecutionDegradedWarning,
    ExecutionPolicy,
    run_chunked,
)
from repro.experiments.transport import (
    MIN_SHM_BYTES,
    TransportStats,
    active_segments,
)
from repro.util.faults import FaultInjector, always_failing
from tests.conftest import run_pooled

#: Floats per draw: a chunk of 8 or more draws reaches MIN_SHM_BYTES, so
#: every pooled result here rides shared memory and a stranded segment
#: would show.
_WIDTH = MIN_SHM_BYTES // 64


@dataclass(frozen=True)
class _Cfg:
    n_samples: int = 400


def _payload_chunk(config, seed, n, nap_s=0.05):
    """Naps first, so a run that fails early leaves chunks in flight."""
    from repro.util.rng import make_rng

    time.sleep(nap_s)
    return {"x": make_rng(seed).random((n, _WIDTH))}


def _marking_chunk(config, seed, n, marker_dir):
    """Leaves one marker file per chunk started, then naps 0.2 s."""
    Path(marker_dir, "-".join(map(str, seed.spawn_key))).touch()
    return _payload_chunk(config, seed, n, nap_s=0.2)


def _run(policy):
    return run_pooled(2, run_chunked, "private", _payload_chunk, _Cfg(), 7,
                      code_version=0, chunk_size=50, policy=policy)


def _serial():
    return run_chunked("private", _payload_chunk, _Cfg(), 7, code_version=0,
                       chunk_size=50, policy=ExecutionPolicy())


def _snapshot():
    """Live threads and shared-memory segments before a run."""
    return set(threading.enumerate()), active_segments()


def _assert_nothing_left(before):
    threads_before, segments_before = before
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) <= threads_before
    assert active_segments() == segments_before


def test_interrupt_stops_a_private_pooled_run(tmp_path):
    # 40 chunks x 0.2 s on two workers is a 4 s sweep; the interrupt
    # lands 0.8 s in, so a run that drains every queued chunk before
    # surfacing it leaves 40 markers.
    before = _snapshot()
    timer = threading.Timer(0.8, _thread.interrupt_main)
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_pooled(2, run_chunked, "marks", _marking_chunk, _Cfg(), 3,
                       code_version=0, chunk_size=10,
                       kwargs={"marker_dir": str(tmp_path)},
                       policy=ExecutionPolicy())
    finally:
        timer.cancel()
        timer.join(timeout=10)
    assert len(list(tmp_path.iterdir())) < 40
    _assert_nothing_left(before)


class TestCleanup:
    def test_successful_run(self):
        before = _snapshot()
        stats = TransportStats()
        out = _run(ExecutionPolicy(transport_stats=stats))
        assert np.array_equal(out["x"], _serial()["x"])
        assert stats.as_dict()["shm_chunks"] == 8
        _assert_nothing_left(before)

    def test_degraded_run(self):
        before = _snapshot()
        policy = ExecutionPolicy(
            max_pool_rebuilds=1,
            faults=FaultInjector(pool_break_rounds={0, 1, 2}))
        with pytest.warns(ExecutionDegradedWarning):
            out = _run(policy)
        assert np.array_equal(out["x"], _serial()["x"])
        _assert_nothing_left(before)

    def test_exhausted_retries(self):
        before = _snapshot()
        policy = ExecutionPolicy(faults=always_failing("private", 3))
        with pytest.raises(ChunkExecutionError):
            _run(policy)
        _assert_nothing_left(before)

"""Shared-memory chunk transport: round-trips, fallbacks, leak checks.

The transport must never change results — only how bytes move — so
every test here is an identity check plus a ``/dev/shm`` scan: after
any run (including faulted ones) no ``repro_shm_*`` segment survives.
Payloads that must ride shared memory are at least
:data:`MIN_SHM_BYTES`, the one size rule every pool applies.
"""

import multiprocessing
import sys
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.runner import ExecutionPolicy, run_chunked
from repro.experiments.transport import (
    MIN_SHM_BYTES,
    ShmChunk,
    TransportStats,
    active_segments,
    decode_chunk,
    encode_chunk,
    release_chunk,
)
from repro.util.faults import FaultInjector
from tests.conftest import run_pooled

#: Draws per supervised chunk: two float64 arrays of this length make
#: exactly MIN_SHM_BYTES.
_DRAWS = MIN_SHM_BYTES // 16


def _payload(n=2 * _DRAWS, seed=0):
    rng = np.random.default_rng(seed)
    return {"gains": rng.random(n), "cases": rng.integers(0, 4, n)}


@dataclass(frozen=True)
class _TinyConfig:
    n_samples: int = 4 * _DRAWS


def _payload_chunk(config, seed, n):
    """Module-level (picklable) chunk fn with a deterministic payload."""
    from repro.util.rng import make_rng

    rng = make_rng(seed)
    return {"x": rng.random(n), "y": rng.random(n)}


class TestRoundTrip:
    def test_large_arrays_ride_shared_memory(self):
        before = active_segments()
        raw = encode_chunk(_payload())
        assert isinstance(raw, ShmChunk)
        assert raw.total_bytes > 0
        decoded = decode_chunk(raw)
        expected = _payload()
        assert set(decoded) == set(expected)
        for name in expected:
            assert np.array_equal(decoded[name], expected[name])
            assert decoded[name].dtype == expected[name].dtype
        assert active_segments() == before

    def test_non_contiguous_and_multidim_arrays(self):
        base = np.arange(120 * 90, dtype=np.float64).reshape(120, 90)
        result = {"strided": base[::2, ::3], "grid": base}
        raw = encode_chunk(result)
        assert isinstance(raw, ShmChunk)
        decoded = decode_chunk(raw)
        assert np.array_equal(decoded["strided"], base[::2, ::3])
        assert np.array_equal(decoded["grid"], base)

    def test_empty_array_survives(self):
        # Exactly MIN_SHM_BYTES: the threshold itself rides.
        result = {"big": np.ones(MIN_SHM_BYTES // 8), "empty": np.empty(0)}
        raw = encode_chunk(result)
        assert isinstance(raw, ShmChunk)
        decoded = decode_chunk(raw)
        assert decoded["empty"].shape == (0,)
        assert np.array_equal(decoded["big"], result["big"])


class TestFallbacks:
    def test_small_payload_pickles(self):
        result = {"x": np.ones(MIN_SHM_BYTES - 1, dtype=np.uint8)}
        assert encode_chunk(result) is result
        assert encode_chunk({}) == {}

    def test_object_dtype_pickles(self):
        result = {"big": np.ones(2 * _DRAWS),
                  "weird": np.array([{"a": 1}], dtype=object)}
        assert encode_chunk(result) is result

    def test_non_ndarray_value_pickles(self):
        result = {"big": np.ones(2 * _DRAWS), "scalar": 3.0}
        assert encode_chunk(result) is result

    def test_unavailable_platform_pickles(self, monkeypatch):
        # A platform without multiprocessing.shared_memory: the import
        # inside encode_chunk raises ImportError.
        monkeypatch.delattr(multiprocessing, "shared_memory")
        monkeypatch.setitem(sys.modules, "multiprocessing.shared_memory",
                            None)
        before = active_segments()
        result = _payload()
        assert encode_chunk(result) is result
        assert active_segments() == before

    def test_segment_creation_failure_pickles(self, monkeypatch):
        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(shared_memory, "SharedMemory", no_space)
        result = _payload()
        assert encode_chunk(result) is result


class TestRelease:
    def test_release_is_idempotent(self):
        raw = encode_chunk(_payload())
        assert isinstance(raw, ShmChunk)
        release_chunk(raw)
        release_chunk(raw)  # second release of the same segment: no-op
        assert raw.segment not in active_segments()

    def test_release_after_decode_is_noop(self):
        raw = encode_chunk(_payload())
        decode_chunk(raw)
        release_chunk(raw)

    def test_release_ignores_plain_dicts(self):
        release_chunk({"x": np.ones(3)})
        release_chunk(None)


class TestStats:
    def test_decode_records_both_paths(self):
        stats = TransportStats()
        raw = encode_chunk(_payload())
        decode_chunk(raw, stats)
        decode_chunk({"x": np.ones(8)}, stats)
        snapshot = stats.as_dict()
        assert snapshot["shm_chunks"] == 1
        assert snapshot["shm_bytes"] == raw.total_bytes
        assert snapshot["pickled_chunks"] == 1
        assert snapshot["pickled_bytes"] == 8 * 8


class TestSupervisedRuns:
    """The transport plugged into run_chunked: identity + no leaks."""

    def test_pooled_run_matches_serial_and_leaves_no_segments(self):
        before = active_segments()
        serial = run_chunked("transport_serial", _payload_chunk,
                             _TinyConfig(), seed=5, code_version=1,
                             chunk_size=_DRAWS)
        stats = TransportStats()
        policy = ExecutionPolicy(transport_stats=stats)
        pooled = run_pooled(2, run_chunked, "transport_pooled",
                            _payload_chunk, _TinyConfig(), seed=5,
                            code_version=1, chunk_size=_DRAWS, policy=policy)
        for name in serial:
            assert np.array_equal(serial[name], pooled[name])
        assert stats.as_dict()["shm_chunks"] == 4
        assert stats.as_dict()["pickled_chunks"] == 0
        assert active_segments() == before

    def test_faulted_run_matches_serial_and_leaves_no_segments(self):
        before = active_segments()
        serial = run_chunked("transport_faulted", _payload_chunk,
                             _TinyConfig(), seed=9, code_version=1,
                             chunk_size=_DRAWS)
        stats = TransportStats()
        policy = ExecutionPolicy(
            transport_stats=stats,
            faults=FaultInjector(fail_first_attempts=1,
                                 pool_break_rounds={0}))
        faulted = run_pooled(2, run_chunked, "transport_faulted",
                             _payload_chunk, _TinyConfig(), seed=9,
                             code_version=1, chunk_size=_DRAWS, policy=policy)
        for name in serial:
            assert np.array_equal(serial[name], faulted[name])
        assert stats.as_dict()["shm_chunks"] == 4
        assert active_segments() == before

    def test_in_process_attempts_never_encode(self, monkeypatch):
        def no_encoding(result):
            raise AssertionError("an in-process attempt was encoded")

        monkeypatch.setattr(runner, "encode_chunk", no_encoding)
        stats = TransportStats()
        out = run_chunked("transport_inline", _payload_chunk, _TinyConfig(),
                          seed=5, code_version=1, chunk_size=_DRAWS,
                          policy=ExecutionPolicy(transport_stats=stats))
        assert out["x"].shape == (4 * _DRAWS,)
        assert stats.as_dict() == {"shm_chunks": 0, "shm_bytes": 0,
                                   "pickled_chunks": 0, "pickled_bytes": 0}

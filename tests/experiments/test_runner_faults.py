"""The supervised executor: bit-identical results under injected faults.

The hard invariant: chunk ``i`` is a pure function of ``(config, chunk
seed i, chunk size i)``, so retries, pool rebuilds, in-process
degradation and checkpoint resume must all yield arrays
``np.array_equal`` to a fault-free serial run.  Every test here drives
a recovery path with the deterministic ``FaultInjector`` and asserts
exactly that.
"""

import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.montecarlo import (
    MonteCarloConfig,
    one_receiver_technique_gains,
    two_receiver_scenarios,
)
from repro.experiments.runner import (
    ChunkExecutionError,
    ExecutionDegradedWarning,
    ExecutionPolicy,
    Watchdog,
    run_chunked,
    run_indexed,
)
from repro.util.cache import ResultCache
from repro.util.checkpoint import CHECKPOINT_DIR_ENV
from repro.util.faults import FaultInjector, always_failing
from tests.conftest import run_pooled

CONFIG = MonteCarloConfig(n_samples=300)
CHUNK = 60  # -> 5 chunks

#: Kill every chunk once and the process pool twice (rebuilt both times).
STORMY = FaultInjector(fail_first_attempts=1, pool_break_rounds={0, 1})


@dataclass(frozen=True)
class _TinyConfig:
    """Minimal config for driving run_chunked with a custom chunk_fn."""

    n_samples: int = 250


def _counting_chunk(calls):
    """A deterministic chunk_fn that records each (index-free) call."""
    from repro.util.rng import make_rng

    def chunk_fn(config, seed, n):
        calls.append(n)
        return {"x": make_rng(seed).random(n)}

    return chunk_fn


def _slow_once_chunk(config, seed, n, marker_dir):
    """Sleeps on first sight of the marker dir; instant afterwards."""
    from repro.util.rng import make_rng

    marker = Path(marker_dir) / "slept"
    if not marker.exists():
        marker.touch()
        time.sleep(1.0)
    return {"x": make_rng(seed).random(n)}


class TestDeterminismUnderFaults:
    """Acceptance: chunk kills + pool crashes never change results."""

    def test_fig6_engine_matches_fault_free_serial(self):
        ref, fractions_ref = two_receiver_scenarios(CONFIG, seed=42,
                                                    chunk_size=CHUNK)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # recovery must stay quiet
            gains, fractions = run_pooled(
                2, two_receiver_scenarios, CONFIG, seed=42,
                chunk_size=CHUNK, policy=ExecutionPolicy(faults=STORMY))
        assert np.array_equal(gains, ref)
        assert fractions == fractions_ref

    def test_fig11_engine_matches_fault_free_serial(self):
        ref = one_receiver_technique_gains(CONFIG, seed=43,
                                           chunk_size=CHUNK)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = run_pooled(
                2, one_receiver_technique_gains, CONFIG, seed=43,
                chunk_size=CHUNK, policy=ExecutionPolicy(faults=STORMY))
        assert set(out) == set(ref)
        for technique in ref:
            assert np.array_equal(out[technique], ref[technique]), technique

    def test_inline_retries_match_too(self):
        ref, _ = two_receiver_scenarios(CONFIG, seed=42, chunk_size=CHUNK)
        gains, _ = two_receiver_scenarios(
            CONFIG, seed=42, chunk_size=CHUNK,
            policy=ExecutionPolicy(faults=FaultInjector(
                fail_first_attempts=1)))
        assert np.array_equal(gains, ref)

    def test_retry_budget_never_changes_results(self):
        ref, _ = two_receiver_scenarios(CONFIG, seed=42, chunk_size=CHUNK)
        for max_attempts in (2, 5):
            gains, _ = run_pooled(
                2, two_receiver_scenarios, CONFIG, seed=42,
                chunk_size=CHUNK,
                policy=ExecutionPolicy(
                    max_attempts=max_attempts,
                    faults=FaultInjector(fail_first_attempts=1)))
            assert np.array_equal(gains, ref), max_attempts


class TestDegradation:
    def test_pool_storm_degrades_with_structured_warning(self):
        ref, _ = two_receiver_scenarios(CONFIG, seed=42, chunk_size=CHUNK)
        policy = ExecutionPolicy(
            max_pool_rebuilds=2,
            faults=FaultInjector(pool_break_rounds={0, 1, 2}))
        with pytest.warns(ExecutionDegradedWarning) as record:
            gains, _ = run_pooled(2, two_receiver_scenarios, CONFIG,
                                  seed=42, chunk_size=CHUNK, policy=policy)
        assert np.array_equal(gains, ref)
        (warning,) = record
        assert warning.message.engine == "two_receiver_scenarios"
        assert warning.message.pool_failures == 3
        assert "injected pool break" in warning.message.reason

    def test_worker_timeout_counts_as_pool_failure(self, tmp_path):
        policy = ExecutionPolicy(
            watchdog=Watchdog(heartbeat_interval_s=0.2), max_pool_rebuilds=0)
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
        assert "no worker progress" in record[0].message.reason


class TestRetryExhaustion:
    def test_raises_structured_chunk_error(self):
        policy = ExecutionPolicy(
            max_attempts=2,
            faults=always_failing("two_receiver_scenarios", 2,
                                  max_attempts=2))
        with pytest.raises(ChunkExecutionError) as excinfo:
            two_receiver_scenarios(CONFIG, seed=42, chunk_size=CHUNK,
                                   policy=policy)
        assert excinfo.value.engine == "two_receiver_scenarios"
        assert excinfo.value.chunk_index == 2
        assert excinfo.value.attempts == 2

    def test_default_budget_is_three_attempts(self):
        assert ExecutionPolicy().max_attempts == 3
        policy = ExecutionPolicy(
            faults=always_failing("two_receiver_scenarios", 2))
        with pytest.raises(ChunkExecutionError) as excinfo:
            two_receiver_scenarios(CONFIG, seed=42, chunk_size=CHUNK,
                                   policy=policy)
        assert excinfo.value.attempts == 3

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_rejects_max_attempts_below_one(self, attempts):
        with pytest.raises(ValueError, match="max_attempts"):
            ExecutionPolicy(max_attempts=attempts)


class TestCheckpointResume:
    def test_interrupt_then_resume_recomputes_only_missing(self, tmp_path):
        calls = []
        chunk_fn = _counting_chunk(calls)
        ref = run_chunked("eng", chunk_fn, _TinyConfig(), 9,
                          code_version=0, chunk_size=50)
        assert calls == [50] * 5

        # Interrupted sweep: chunk 3 exhausts its retries after 0..2
        # completed and checkpointed.
        calls.clear()
        with pytest.raises(ChunkExecutionError):
            run_chunked("eng", chunk_fn, _TinyConfig(), 9, code_version=0,
                        chunk_size=50,
                        policy=ExecutionPolicy(
                            checkpoint_dir=tmp_path,
                            faults=always_failing("eng", 3)))

        # Resume: only chunks 3 and 4 are recomputed, result identical.
        calls.clear()
        out = run_chunked("eng", chunk_fn, _TinyConfig(), 9, code_version=0,
                          chunk_size=50,
                          policy=ExecutionPolicy(checkpoint_dir=tmp_path))
        assert len(calls) == 2
        assert np.array_equal(out["x"], ref["x"])

        # A fully checkpointed sweep recomputes nothing.
        calls.clear()
        again = run_chunked("eng", chunk_fn, _TinyConfig(), 9, code_version=0,
                            chunk_size=50,
                            policy=ExecutionPolicy(checkpoint_dir=tmp_path))
        assert calls == []
        assert np.array_equal(again["x"], ref["x"])

    def test_corrupt_checkpoint_chunk_recomputed_not_trusted(self, tmp_path):
        calls = []
        chunk_fn = _counting_chunk(calls)
        policy = ExecutionPolicy(checkpoint_dir=tmp_path)
        ref = run_chunked("eng", chunk_fn, _TinyConfig(), 9, code_version=0,
                          chunk_size=50, policy=policy)
        (run_dir,) = [p for p in tmp_path.iterdir() if p.is_dir()]
        (run_dir / "chunk_000001.npz").write_bytes(b"garbage")
        calls.clear()
        out = run_chunked("eng", chunk_fn, _TinyConfig(), 9, code_version=0,
                          chunk_size=50, policy=policy)
        assert len(calls) == 1  # only the quarantined chunk
        assert np.array_equal(out["x"], ref["x"])
        assert list((run_dir / "corrupt").glob("chunk_000001.*.npz"))

    def test_env_variable_enables_checkpointing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHECKPOINT_DIR_ENV, str(tmp_path))
        ref, _ = two_receiver_scenarios(CONFIG, seed=45, chunk_size=CHUNK)
        assert any(p.is_dir() for p in tmp_path.iterdir())
        gains, _ = two_receiver_scenarios(CONFIG, seed=45, chunk_size=CHUNK)
        assert np.array_equal(gains, ref)

    def test_generator_seeds_never_checkpoint(self, tmp_path):
        policy = ExecutionPolicy(checkpoint_dir=tmp_path)
        rng = np.random.default_rng(5)
        two_receiver_scenarios(CONFIG, rng, chunk_size=CHUNK, policy=policy)
        assert list(tmp_path.iterdir()) == []  # unreplayable: no resume


class TestRunKeys:
    """Cache entries and checkpoint run dirs are named by the run key.

    A drift in the key would orphan every user's cache and checkpoints,
    so the digests are pinned literally.  A run served from the cache
    must not touch the caller's seed either.
    """

    @staticmethod
    def _stores(tmp_path):
        return {"cache": ResultCache(tmp_path / "cache"),
                "policy": ExecutionPolicy(checkpoint_dir=tmp_path / "ckpt")}

    @staticmethod
    def _assert_named(tmp_path, digest):
        assert [p.stem for p in (tmp_path / "cache").glob("*.npz")] \
            == [digest]
        assert [p.name for p in (tmp_path / "ckpt").iterdir()] == [digest]

    def test_run_chunked_key(self, tmp_path):
        run_chunked("eng", _counting_chunk([]), _TinyConfig(n_samples=250),
                    9, code_version=0, chunk_size=50,
                    **self._stores(tmp_path))
        self._assert_named(
            tmp_path,
            "5b6df15b6f6023edafa28709365e41eb822d6bcda3780a3a5196a7e984eea99d")

    def test_run_indexed_key(self, tmp_path):
        run_indexed("idx", _counting_chunk([]), _TinyConfig(), 120,
                    code_version=0, chunk_size=50, cache_key={"seed": 9},
                    **self._stores(tmp_path))
        self._assert_named(
            tmp_path,
            "e373c4e68f3def1cd0cbf3f27fbc5250ffeaafa884f90818bf243748cce0f2a9")

    def test_cache_hit_spawns_no_seeds(self, tmp_path):
        seed = np.random.SeedSequence(9)
        cache = ResultCache(tmp_path)
        for _ in range(2):  # a miss, then a hit
            run_chunked("eng", _counting_chunk([]), _TinyConfig(), seed,
                        code_version=0, chunk_size=50, cache=cache)
        assert seed.n_children_spawned == 5


class TestAcceptanceSweep:
    """ISSUE acceptance: chunk failures + a pool crash + a corrupt cache
    entry, with checkpointing on — completes and matches the fault-free
    serial reference exactly."""

    @pytest.mark.parametrize("engine_fn,seed", [
        (two_receiver_scenarios, 42),
        (one_receiver_technique_gains, 43),
    ])
    def test_full_fault_sweep_matches_reference(self, tmp_path, engine_fn,
                                                seed):
        reference = engine_fn(CONFIG, seed=seed, chunk_size=CHUNK)

        cache = ResultCache(tmp_path / "cache")
        engine_fn(CONFIG, seed=seed, chunk_size=CHUNK, cache=cache)
        (entry,) = (tmp_path / "cache").glob("*.npz")
        entry.write_bytes(b"corrupt cache entry")

        policy = ExecutionPolicy(
            checkpoint_dir=tmp_path / "ckpt",
            faults=FaultInjector(fail_first_attempts=1,
                                 pool_break_rounds={0}))
        stormy = run_pooled(2, engine_fn, CONFIG, seed=seed,
                            chunk_size=CHUNK, cache=cache, policy=policy)

        assert cache.quarantined == 1  # the corrupt entry, set aside
        if isinstance(reference, tuple):
            assert np.array_equal(stormy[0], reference[0])
            assert stormy[1] == reference[1]
        else:
            for technique in reference:
                assert np.array_equal(stormy[technique],
                                      reference[technique]), technique

    def test_resume_after_crash_recomputes_only_affected(self, tmp_path):
        """Interrupt an engine sweep mid-run, resume, count recomputes."""
        calls = []
        original = runner._guarded_chunk

        def counting_guard(*args):
            calls.append(args[7])  # chunk_index
            return original(*args)

        ref, _ = two_receiver_scenarios(CONFIG, seed=47, chunk_size=CHUNK)
        policy = ExecutionPolicy(
            checkpoint_dir=tmp_path,
            faults=always_failing("two_receiver_scenarios", 3))
        with pytest.raises(ChunkExecutionError):
            two_receiver_scenarios(CONFIG, seed=47, chunk_size=CHUNK,
                                   policy=policy)

        runner._guarded_chunk = counting_guard
        try:
            gains, _ = two_receiver_scenarios(
                CONFIG, seed=47, chunk_size=CHUNK,
                policy=ExecutionPolicy(checkpoint_dir=tmp_path))
        finally:
            runner._guarded_chunk = original
        assert sorted(calls) == [3, 4]  # chunks 0-2 came from checkpoints
        assert np.array_equal(gains, ref)

"""Fast-path trace evaluation: ``run_indexed`` and Fig. 13/14 goldens.

The hard invariant mirrors the Monte-Carlo engines': chunk ``i`` of an
indexed run is a pure function of ``(config, start i, size i)``, so the
merged result is independent of chunking, the pool, caching and
faults — and the figure pipelines built on top (``fig13.compute``,
``fig14.compute``) must be bit-identical to their frozen ``*_scalar``
references under every execution mode.
"""

import numpy as np
import pytest

from repro.experiments import fig13, fig14
from repro.experiments.runner import (
    ChunkExecutionError,
    ExecutionPolicy,
    run_indexed,
)
from repro.traces.downlink import DownlinkTraceConfig, DownlinkTraceGenerator
from repro.traces.synthetic import (
    RESOLVE_BLOCK_STEPS,
    UploadTraceConfig,
    UploadTraceGenerator,
)
from repro.util.cache import ResultCache
from repro.util.faults import FaultInjector, always_failing
from tests.conftest import run_pooled


def _square_chunk(config, start, n, scale=1.0):
    idx = np.arange(start, start + n, dtype=float)
    return {"idx": idx, "sq": scale * idx * idx}


def _counting_chunk(calls):
    def chunk_fn(config, start, n):
        calls.append((start, n))
        return {"idx": np.arange(start, start + n, dtype=float)}

    return chunk_fn


class TestRunIndexed:
    def test_maps_every_index_in_order(self):
        out = run_indexed("eng", _square_chunk, None, 30,
                          code_version=0, chunk_size=7)
        assert np.array_equal(out["idx"], np.arange(30.0))
        assert np.array_equal(out["sq"], np.arange(30.0) ** 2)

    def test_chunking_invariance(self):
        ref = run_indexed("eng", _square_chunk, None, 53,
                          code_version=0, chunk_size=53)
        for chunk_size in (1, 3, 8, 50, 200):
            out = run_indexed("eng", _square_chunk, None, 53,
                              code_version=0, chunk_size=chunk_size)
            assert np.array_equal(out["sq"], ref["sq"]), chunk_size

    def test_worker_invariance(self):
        ref = run_indexed("eng", _square_chunk, None, 40,
                          code_version=0, chunk_size=10)
        out = run_pooled(3, run_indexed, "eng", _square_chunk, None, 40,
                         code_version=0, chunk_size=10)
        assert np.array_equal(out["idx"], ref["idx"])
        assert np.array_equal(out["sq"], ref["sq"])

    def test_zero_items(self):
        out = run_indexed("eng", _square_chunk, None, 0,
                          code_version=0, chunk_size=8)
        assert out["idx"].shape == (0,)

    def test_kwargs_forwarded(self):
        out = run_indexed("eng", _square_chunk, None, 5,
                          code_version=0, chunk_size=5,
                          kwargs={"scale": 3.0})
        assert np.array_equal(out["sq"], 3.0 * np.arange(5.0) ** 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_indexed("eng", _square_chunk, None, -1, code_version=0)

    def test_cache_round_trip(self, tmp_path):
        calls = []
        chunk_fn = _counting_chunk(calls)
        cache = ResultCache(tmp_path)
        key = {"seed": 1}
        first = run_indexed("eng", chunk_fn, None, 12, code_version=0,
                            chunk_size=4, cache_key=key, cache=cache)
        assert calls == [(0, 4), (4, 4), (8, 4)]
        calls.clear()
        again = run_indexed("eng", chunk_fn, None, 12, code_version=0,
                            chunk_size=4, cache_key=key, cache=cache)
        assert calls == []  # served from cache, nothing recomputed
        assert np.array_equal(again["idx"], first["idx"])

    def test_cache_key_none_disables_cache(self, tmp_path):
        calls = []
        chunk_fn = _counting_chunk(calls)
        cache = ResultCache(tmp_path)
        for _ in range(2):
            run_indexed("eng", chunk_fn, None, 6, code_version=0,
                        chunk_size=3, cache=cache)
        assert len(calls) == 4  # both runs computed every chunk

    def test_identical_under_injected_faults(self):
        ref = run_indexed("eng", _square_chunk, None, 24,
                          code_version=0, chunk_size=6)
        out = run_indexed(
            "eng", _square_chunk, None, 24, code_version=0, chunk_size=6,
            policy=ExecutionPolicy(faults=FaultInjector(
                fail_first_attempts=1)))
        assert np.array_equal(out["sq"], ref["sq"])

    def test_interrupt_then_resume_recomputes_only_missing(self, tmp_path):
        calls = []
        chunk_fn = _counting_chunk(calls)
        key = {"seed": 9}
        ref = run_indexed("eng", chunk_fn, None, 20, code_version=0,
                          chunk_size=5, cache_key=key)
        assert len(calls) == 4
        calls.clear()
        with pytest.raises(ChunkExecutionError):
            run_indexed("eng", chunk_fn, None, 20, code_version=0,
                        chunk_size=5, cache_key=key,
                        policy=ExecutionPolicy(
                            checkpoint_dir=tmp_path,
                            faults=always_failing("eng", 2)))
        calls.clear()
        out = run_indexed("eng", chunk_fn, None, 20, code_version=0,
                          chunk_size=5, cache_key=key,
                          policy=ExecutionPolicy(checkpoint_dir=tmp_path))
        assert len(calls) == 2  # chunks 2 and 3; 0 and 1 from checkpoint
        assert np.array_equal(out["idx"], ref["idx"])


def assert_results_identical(a, b):
    """Exact equality of a figure-result dict: gains, summaries, meta."""
    assert set(a) == set(b)
    for label in a:
        if label == "meta":
            assert a["meta"] == b["meta"]
            continue
        assert np.array_equal(a[label]["gains"], b[label]["gains"]), label
        assert a[label]["summary"] == b[label]["summary"], label


class TestFig13Golden:
    CONFIG = UploadTraceConfig(duration_days=1.0)
    KW = dict(trace_config=CONFIG, seed=2010, max_snapshots=60)

    @pytest.fixture(scope="class")
    def scalar(self):
        return fig13.compute_scalar(**self.KW)

    @pytest.fixture(scope="class")
    def fast(self):
        return fig13.compute(**self.KW)

    def test_fast_equals_scalar(self, scalar, fast):
        assert_results_identical(fast, scalar)

    def test_parallel_equals_serial(self, fast):
        # 60 snapshots fit one default chunk; 16 per chunk reach the pool.
        assert_results_identical(
            run_pooled(2, fig13.compute, **self.KW, chunk_size=16), fast)

    def test_chunk_size_invariant(self, fast):
        assert_results_identical(
            fig13.compute(**self.KW, chunk_size=7), fast)

    def test_cached_equals_fresh(self, fast, tmp_path):
        cache = ResultCache(tmp_path)
        first = fig13.compute(**self.KW, cache=cache)
        second = fig13.compute(**self.KW, cache=cache)
        assert_results_identical(first, fast)
        assert_results_identical(second, fast)

    def test_explicit_trace_equals_generated(self, fast):
        trace = UploadTraceGenerator(self.CONFIG).generate(2010)
        assert_results_identical(
            fig13.compute(trace=trace, seed=2010, max_snapshots=60), fast)

    def test_timer_covers_all_phases(self):
        from repro.util.timing import PhaseTimer
        timer = PhaseTimer()
        fig13.compute(**self.KW, timer=timer)
        assert list(timer.phases) == ["trace_gen", "scheduling", "assembly"]
        assert all(t >= 0.0 for t in timer.phases.values())

    @pytest.mark.parametrize("max_snapshots", [0, -1])
    def test_rejects_max_snapshots_below_one(self, max_snapshots,
                                             monkeypatch):
        # Rejected before the trace is generated.
        monkeypatch.delattr(UploadTraceGenerator, "generate")
        with pytest.raises(ValueError,
                           match=rf"max_snapshots .*got {max_snapshots}"):
            fig13.compute(trace_config=self.CONFIG, seed=2010,
                          max_snapshots=max_snapshots)


class TestFig13Prefix:
    """Capped runs on the default 14-day trace generate only the blocks
    holding their snapshots, with the output of a run over the whole
    trace — ``meta`` (the full trace's duration) included."""

    @pytest.fixture(scope="class")
    def trace(self):
        return UploadTraceGenerator().generate(2010)

    @pytest.mark.parametrize("max_snapshots", [40, 600])
    def test_equals_run_over_whole_trace(self, trace, max_snapshots,
                                         tmp_path, monkeypatch):
        expected = fig13.compute(trace=trace, seed=2010,
                                 max_snapshots=max_snapshots)
        cache = ResultCache(tmp_path)
        cold = fig13.compute(seed=2010, max_snapshots=max_snapshots,
                             cache=cache)
        assert_results_identical(cold, expected)
        # Warm: every gain comes from the cache, none is recomputed.
        def recompute(*args):
            raise AssertionError("the warm run recomputed a chunk")

        monkeypatch.setattr(fig13, "_fig13_chunk", recompute)
        warm = fig13.compute(seed=2010, max_snapshots=max_snapshots,
                             cache=cache)
        assert_results_identical(warm, expected)

    def test_resolves_only_the_prefix_and_the_last_block(self,
                                                         monkeypatch):
        config = UploadTraceConfig()
        resolved = []
        resolve = UploadTraceGenerator._resolve_block

        def counting(self, block, names_used, timer):
            step = round(block[0][0] / config.snapshot_interval_s)
            resolved.append(step // RESOLVE_BLOCK_STEPS)
            return resolve(self, block, names_used, timer)

        monkeypatch.setattr(UploadTraceGenerator, "_resolve_block",
                            counting)
        fig13.compute(seed=2010, max_snapshots=40)
        # Two blocks hold the first 40 busy snapshots; the last of the
        # trace's 56 blocks gives its duration.
        n_blocks = -(-config.n_snapshots // RESOLVE_BLOCK_STEPS)
        assert n_blocks == 56
        assert len(resolved) <= 3
        assert resolved[-1] == n_blocks - 1

    def test_cap_above_the_busy_count_draws_the_stream_once(self,
                                                            monkeypatch):
        # The 1-day trace holds 347 busy snapshots: under a cap of 447
        # generate() already returns all of it, so its duration needs
        # no second pass over the draws.
        config = UploadTraceConfig(duration_days=1.0)
        trace = UploadTraceGenerator(config).generate(2010)
        assert len(trace.busy_snapshots(2)) == 347
        expected = fig13.compute(trace=trace, seed=2010, max_snapshots=447)

        def second_pass(self, seed=None):
            raise AssertionError("duration_s redrew the stream")

        monkeypatch.setattr(UploadTraceGenerator, "duration_s", second_pass)
        got = fig13.compute(trace_config=config, seed=2010,
                            max_snapshots=447)
        assert_results_identical(got, expected)
        assert got["meta"] == {"n_snapshots": 347,
                               "building": trace.building,
                               "trace_duration_s": trace.duration_s}


class TestFig14Golden:
    KW = dict(trace_config=DownlinkTraceConfig(n_locations=20),
              n_scenarios=300, seed=2010)

    @pytest.fixture(scope="class")
    def scalar(self):
        return fig14.compute_scalar(**self.KW)

    @pytest.fixture(scope="class")
    def fast(self):
        return fig14.compute(**self.KW)

    def test_fast_equals_scalar(self, scalar, fast):
        assert_results_identical(fast, scalar)

    @pytest.mark.parametrize("seed", [2010, 1, 7])
    def test_default_campaign_equals_scalar(self, seed):
        # The 100-location campaign the CLI and perfbench run, in two
        # chunks: the chunk's batched SNR conversion and packing gains
        # must reproduce the frozen per-scenario pipeline bit for bit.
        kw = dict(n_scenarios=500, seed=seed)
        assert_results_identical(fig14.compute(**kw),
                                 fig14.compute_scalar(**kw))

    def test_parallel_equals_serial(self, fast):
        assert_results_identical(
            run_pooled(2, fig14.compute, **self.KW), fast)

    def test_chunk_size_invariant(self, fast):
        assert_results_identical(
            fig14.compute(**self.KW, chunk_size=37), fast)

    def test_cached_equals_fresh(self, fast, tmp_path):
        cache = ResultCache(tmp_path)
        first = fig14.compute(**self.KW, cache=cache)
        second = fig14.compute(**self.KW, cache=cache)
        assert_results_identical(first, fast)
        assert_results_identical(second, fast)

    def test_timer_covers_all_phases(self):
        from repro.util.timing import PhaseTimer
        timer = PhaseTimer()
        fig14.compute(**self.KW, timer=timer)
        assert list(timer.phases) == ["trace_gen", "draw", "evaluate",
                                      "assembly"]
        assert all(t >= 0.0 for t in timer.phases.values())

    @pytest.mark.parametrize("n_scenarios", [0, -3])
    def test_rejects_n_scenarios_below_one(self, n_scenarios, monkeypatch):
        # Rejected before the campaign is generated.
        monkeypatch.delattr(DownlinkTraceGenerator, "generate")
        with pytest.raises(ValueError,
                           match=rf"n_scenarios .*got {n_scenarios}"):
            fig14.compute(trace_config=self.KW["trace_config"], seed=2010,
                          n_scenarios=n_scenarios)

"""Suite engine tests: pool lifecycle, golden bit-identity.

The load-bearing guarantee: running figures through the shared suite
pool yields results bit-identical to calling each figure's
``compute()`` directly with the same kwargs — for any worker count,
chunk size, or interleaving.  Chunks are pure functions of
``(config, chunk seed, chunk size)`` and the suite never alters a
figure's chunk layout, so only *where* chunks execute moves.
"""

import multiprocessing
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import fig6, fig11, fig12, fig13
from repro.experiments.registry import REGISTRY
from repro.experiments.runner import ExecutionPolicy, SuitePool, run_chunked
from repro.experiments.suite import run_suite
from repro.experiments.transport import (
    MIN_SHM_BYTES,
    TransportStats,
    active_segments,
)


def _square(x):
    return x * x


def _nap(seconds):
    time.sleep(seconds)


def _mark_and_nap(seconds, marker):
    """Leaves ``marker`` behind once a worker starts the chunk."""
    Path(marker).touch()
    time.sleep(seconds)


@dataclass(frozen=True)
class _NapCfg:
    n_samples: int = 8


def _nap_chunk(config, seed, n):
    time.sleep(0.25)
    return {"n": np.full(n, n)}


class TestSuitePool:
    def test_workers_fork_before_any_chunk(self):
        # Figure threads start only after the pool returns, so every
        # worker must already exist by then.
        before = set(multiprocessing.active_children())
        with SuitePool(2) as pool:
            forked = set(multiprocessing.active_children()) - before
            assert len(forked) == 2
            assert pool.stats()["tasks_done"] == 0

    def test_submit_through_round(self):
        with SuitePool(2) as pool:
            handle = pool.open_round("lane")
            futures = [handle.submit(_square, i) for i in range(8)]
            assert [f.result(timeout=60) for f in futures] \
                == [i * i for i in range(8)]
            stats = pool.stats()
        assert stats["tasks_done"] == 8
        assert stats["lanes"] == {"lane": 8}
        assert stats["workers"] == 2

    def test_worker_exception_surfaces_on_proxy(self):
        with SuitePool(1) as pool:
            handle = pool.open_round("lane")
            future = handle.submit(_square, "not-a-number")
            with pytest.raises(TypeError):
                future.result(timeout=60)

    def test_rebuild_once_per_generation(self):
        with SuitePool(1) as pool:
            first = pool.open_round("a")
            second = pool.open_round("b")
            first.broken()
            second.broken()  # same generation: must not rebuild again
            assert pool.stats()["rebuilds"] == 1
            # the pool stays usable after a rebuild
            fresh = pool.open_round("a")
            assert fresh.submit(_square, 3).result(timeout=60) == 9

    def test_close_is_idempotent_and_fails_late_submits(self):
        pool = SuitePool(1)
        pool.close()
        pool.close()
        future = pool.open_round("lane").submit(_square, 2)
        with pytest.raises(BrokenProcessPool):
            future.result(timeout=60)

    def test_interrupt_fails_queued_chunks(self):
        class _Stop(BaseException):
            pass

        with SuitePool(1) as pool:
            pool.interrupt(_Stop())
            future = pool.open_round("lane").submit(_square, 2)
            with pytest.raises(_Stop):
                future.result(timeout=60)

    def test_interrupt_fails_chunks_queued_behind_a_busy_worker(
            self, tmp_path):
        class _Stop(BaseException):
            pass

        stop = _Stop()
        with SuitePool(1) as pool:
            handle = pool.open_round("lane")
            futures = [handle.submit(_mark_and_nap, 0.3, tmp_path / str(i))
                       for i in range(6)]
            pool.interrupt(stop)
            outcomes = [future.exception(timeout=60) for future in futures]
        # close() joined the worker, so every chunk that ran left its
        # marker; a chunk that failed with the interrupt never started.
        assert outcomes[-1] is stop
        assert all(outcome is None or outcome is stop
                   for outcome in outcomes)
        assert sorted(path.name for path in tmp_path.iterdir()) \
            == [str(i) for i, outcome in enumerate(outcomes)
                if outcome is None]

    def test_close_fails_queued_chunks_with_broken_pool(self):
        # exception() raises CancelledError on a cancelled proxy.
        pool = SuitePool(1)
        handle = pool.open_round("lane")
        futures = [handle.submit(_nap, 0.3) for _ in range(6)]
        pool.close()
        outcomes = [future.exception(timeout=60) for future in futures]
        assert isinstance(outcomes[-1], BrokenProcessPool)
        assert all(outcome is None or isinstance(outcome, BrokenProcessPool)
                   for outcome in outcomes)

    def test_rebuild_fails_queued_chunks_with_broken_pool(self):
        with SuitePool(1) as pool:
            handle = pool.open_round("lane")
            futures = [handle.submit(_nap, 0.3) for _ in range(6)]
            handle.broken()
            outcomes = [future.exception(timeout=60) for future in futures]
            assert isinstance(outcomes[-1], BrokenProcessPool)
            assert all(outcome is None
                       or isinstance(outcome, BrokenProcessPool)
                       for outcome in outcomes)
            fresh = pool.open_round("lane")
            assert fresh.submit(_square, 3).result(timeout=60) == 9

    def test_rebuild_under_a_running_sweep_spends_no_retries(self):
        # Another round's rebuild cancels the sweep's queued chunks.  A
        # sweep allowed one attempt per chunk finishes only if those
        # chunks come back as a broken pool (rebuild and resubmit), not
        # as failed chunks (ChunkExecutionError).
        outcome = {}
        with SuitePool(1) as pool:
            policy = ExecutionPolicy(max_attempts=1, pool=pool)
            thread = threading.Thread(target=lambda: outcome.update(
                out=run_chunked("victim", _nap_chunk, _NapCfg(), 5,
                                code_version=0, chunk_size=1,
                                policy=policy)))
            thread.start()
            deadline = time.monotonic() + 60
            while pool.stats()["tasks_done"] < 1 \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            # At most two more chunks have left the executor's queue.
            assert pool.stats()["tasks_done"] <= 5
            pool.open_round("breaker").broken()
            thread.join(timeout=120)
            assert pool.stats()["rebuilds"] == 1
        assert np.array_equal(outcome["out"]["n"], np.ones(8))

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            SuitePool(0)

    def test_busy_time_excludes_queue_wait(self):
        # All eight chunks queue in the executor at once, so a chunk
        # timed from submission would count its queue wait as work.
        with SuitePool(1) as pool:
            handle = pool.open_round("lane")
            for future in [handle.submit(_nap, 0.1) for _ in range(8)]:
                future.result(timeout=60)
            stats = pool.stats()
        assert stats["busy_s"] >= 0.75
        assert stats["busy_s"] <= stats["wall_s"] * stats["workers"]


#: ``fig12.compute(sizes=(3, 5, 8), n_trials=5)`` comparisons, recorded
#: before fig12 ran on the supervised runner: ``(n_clients, mean_times,
#: mean_gains)``, each policy list in key order.
FIG12_QUICK_COMPARISONS = [
    (3,
     [("blossom", 0.0002748458729783561), ("greedy", 0.0002748458729783561),
      ("random", 0.00029534049299188777), ("serial", 0.0003355766590315603),
      ("brute_force", 0.0002748458729783561)],
     [("blossom", 1.2256336561747838), ("greedy", 1.2256336561747838),
      ("random", 1.1422688146028352), ("serial", 1.0),
      ("brute_force", 1.2256336561747838)]),
    (5,
     [("blossom", 0.00043858701666507204), ("greedy", 0.00044012373149069354),
      ("random", 0.00046958772310328216), ("serial", 0.0005721072444160007),
      ("brute_force", 0.00043858701666507204)],
     [("blossom", 1.292637804678503), ("greedy", 1.2878016391915628),
      ("random", 1.2024075902285907), ("serial", 1.0),
      ("brute_force", 1.292637804678503)]),
    (8,
     [("blossom", 0.0006439029451170461), ("greedy", 0.0006473029205886421),
      ("random", 0.000668622056431318), ("serial", 0.0008555026887527408),
      ("brute_force", 0.0006439029451170461)],
     [("blossom", 1.3269651603768666), ("greedy", 1.3183486149879875),
      ("random", 1.270899874986118), ("serial", 1.0),
      ("brute_force", 1.3269651603768666)]),
]


def _fig12_comparisons(result):
    """Comparisons as plain tuples, keeping types and key order."""
    return [(c.n_clients, list(c.mean_times.items()),
             list(c.mean_gains.items())) for c in result["comparisons"]]


def _assert_gain_maps_equal(actual, expected):
    assert set(actual) == set(expected)
    for label in expected:
        if not isinstance(expected[label], dict):
            assert actual[label] == expected[label]
            continue
        for key, value in expected[label].items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(actual[label][key], value), \
                    (label, key)
            elif isinstance(value, dict):
                assert actual[label][key] == value, (label, key)
            else:
                assert actual[label][key] == value, (label, key)


class TestRunSuiteGolden:
    """Suite-mode outputs are bit-identical to direct compute() calls."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("chunk_size", [None, 64])
    def test_fig6_fig11_identical_across_workers_and_chunks(
            self, n_workers, chunk_size):
        kwargs = {
            "fig6": {"n_samples": 200, "seed": 11,
                     "chunk_size": chunk_size},
            "fig11": {"n_samples": 200, "seed": 11,
                      "chunk_size": chunk_size},
        }
        suite = run_suite(["fig6", "fig11"], kwargs, n_workers=n_workers)
        runs = suite.runs()

        direct6 = fig6.compute(**kwargs["fig6"])
        _assert_gain_maps_equal(runs["fig6"].result, direct6)
        direct11 = fig11.compute(**kwargs["fig11"])
        for panel in direct11:
            _assert_gain_maps_equal(runs["fig11"].result[panel],
                                    direct11[panel])

    def test_fig13_indexed_runner_identical(self):
        kwargs = {"fig13": {"max_snapshots": 6, "seed": 3}}
        suite = run_suite(["fig13"], kwargs, n_workers=2)
        direct = fig13.compute(max_snapshots=6, seed=3)
        result = suite.runs()["fig13"].result
        assert set(result) == set(direct)
        for label in direct:
            if label == "meta":
                assert result[label] == direct[label]
                continue
            assert np.array_equal(result[label]["gains"],
                                  direct[label]["gains"]), label

    def test_fig12_items_run_on_the_pool(self):
        kwargs = {"fig12": {"sizes": (3, 5), "n_trials": 2}}
        suite = run_suite(["fig12"], kwargs, n_workers=2)
        # One chunk per size.
        assert suite.pool_stats["tasks_done"] == 2
        result = suite.runs()["fig12"].result
        direct = fig12.compute(**kwargs["fig12"])
        assert _fig12_comparisons(result) == _fig12_comparisons(direct)

    def test_fig12_pinned_to_recorded_values(self):
        # Guards the chunk arrays' round trip: exact floats, plain
        # types and key order.
        kwargs = {"sizes": (3, 5, 8), "n_trials": 5}
        suite = run_suite(["fig12"], {"fig12": kwargs}, n_workers=2)
        for result in (suite.runs()["fig12"].result, fig12.compute(**kwargs)):
            got = _fig12_comparisons(result)
            assert got == FIG12_QUICK_COMPARISONS
            for n_clients, times, gains in got:
                assert type(n_clients) is int
                assert all(type(value) is float
                           for _, value in times + gains)

    def test_outcomes_in_paper_order_regardless_of_request_order(self):
        suite = run_suite(["fig10", "fig2"], {"fig2": {"n_points": 5}},
                          n_workers=1)
        assert [outcome.figure for outcome in suite.outcomes] \
            == ["fig2", "fig10"]

    def test_a_figure_requested_twice_runs_once(self, monkeypatch):
        calls = []
        fig2 = REGISTRY["fig2"]

        def counting_compute(**kwargs):
            calls.append(kwargs)
            return fig2.compute(**kwargs)

        monkeypatch.setitem(REGISTRY, "fig2",
                            replace(fig2, compute=counting_compute))
        with SuitePool(1) as pool:
            suite = run_suite(["fig2", "fig2"], {"fig2": {"n_points": 5}},
                              pool=pool)
        assert calls == [{"n_points": 5}]
        assert [outcome.figure for outcome in suite.outcomes] == ["fig2"]
        assert suite.summary_lines()[0].startswith("== suite: 1 figures")

    def test_transport_exercised_and_no_leaked_segments(self):
        # 3 ranges x 2 chunks of 8,000 draws: 80,000 B each.
        before = active_segments()
        kwargs = {"fig6": {"n_samples": 16000, "seed": 2,
                           "chunk_size": 8000}}
        suite = run_suite(["fig6"], kwargs, n_workers=2)
        assert suite.transport["shm_chunks"] == 6
        assert suite.transport["shm_bytes"] == 6 * 80_000
        assert suite.transport["pickled_chunks"] == 0
        assert active_segments() == before
        direct = fig6.compute(**kwargs["fig6"])
        _assert_gain_maps_equal(suite.runs()["fig6"].result, direct)

    def test_callers_own_pool_transports(self):
        # fig6 ships 10 B per draw.  Per range, one chunk just reaches
        # MIN_SHM_BYTES and rides shared memory; the 100-draw remainder
        # is pickled.
        draws = -(-MIN_SHM_BYTES // 10)
        kwargs = {"n_samples": draws + 100, "chunk_size": draws, "seed": 1}
        before = active_segments()
        stats = TransportStats()
        with SuitePool(2) as pool:
            pooled = fig6.compute(**kwargs, policy=ExecutionPolicy(
                pool=pool, transport_stats=stats))
        assert stats.as_dict() == {
            "shm_chunks": 3, "shm_bytes": 3 * 10 * draws,
            "pickled_chunks": 3, "pickled_bytes": 3 * 10 * 100}
        assert active_segments() == before
        _assert_gain_maps_equal(pooled, fig6.compute(**kwargs))

    def test_summary_lines_cover_pool_and_transport(self):
        suite = run_suite(["fig2"], {"fig2": {"n_points": 5}}, n_workers=1)
        text = "\n".join(suite.summary_lines())
        assert "== suite:" in text
        assert "fig2" in text
        assert "pool: utilization" in text
        assert "transport:" in text

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError, match="unknown figures"):
            run_suite(["fig99"])

    def test_figure_error_reraised_after_all_settle(self):
        with pytest.raises(TypeError):
            run_suite(["fig2", "fig10"],
                      {"fig2": {"no_such_kwarg": 1}}, n_workers=1)

    def test_borrowed_pool_left_open(self):
        with SuitePool(1) as pool:
            run_suite(["fig2"], {"fig2": {"n_points": 5}}, pool=pool)
            # still usable: run_suite must not close a borrowed pool
            handle = pool.open_round("after")
            assert handle.submit(_square, 4).result(timeout=60) == 16

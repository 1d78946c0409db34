"""Equivalence tests: batched Monte-Carlo engines vs the scalar reference.

The batched engines must reproduce the scalar reference *draw for
draw* for a fixed seed (not just in distribution): the vectorised
samplers consume the same uniform stream, so sample ``k`` of a batch is
the same topology the scalar loop sees on iteration ``k``.  Gains are
compared with a tight tolerance (the only permitted difference is
last-ulp trig/hypot rounding); case fractions must match exactly.

Chunked runs re-seed per chunk, so their reference is the scalar engine
run chunk-by-chunk on the same spawned seeds.  The pool must never
change results: a chunked in-process run and the same run on a
4-worker ``SuitePool`` in the policy must be bit-identical.  An
unchunked run is one chunk, which never reaches a pool, so the
draw-for-draw checks call the engines in-process.
"""

import json

import numpy as np
import pytest

from repro.experiments.montecarlo import (
    MonteCarloConfig,
    chunk_seeds,
    chunk_sizes,
    one_receiver_technique_gains,
    one_receiver_technique_gains_scalar,
    two_receiver_scenarios,
    two_receiver_scenarios_scalar,
    two_receiver_technique_gains,
    two_receiver_technique_gains_scalar,
)
from repro.util.cache import ResultCache, array_digest
from tests.conftest import run_pooled

RTOL = 1e-9


@pytest.fixture(scope="module")
def config():
    return MonteCarloConfig(n_samples=500)


class TestChunkHelpers:
    def test_default_is_single_chunk(self):
        assert chunk_sizes(10_000, None) == [10_000]

    def test_even_split(self):
        assert chunk_sizes(1000, 250) == [250, 250, 250, 250]

    def test_remainder_chunk(self):
        assert chunk_sizes(1000, 300) == [300, 300, 300, 100]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chunk_sizes(100, 0)

    def test_single_chunk_reuses_seed(self):
        (seed,) = chunk_seeds(1234, 1)
        assert seed == 1234

    def test_multi_chunk_spawns_deterministically(self):
        a = chunk_seeds(1234, 3)
        b = chunk_seeds(1234, 3)
        assert [s.spawn_key for s in a] == [s.spawn_key for s in b]
        assert [s.entropy for s in a] == [s.entropy for s in b]


class TestTwoReceiverScenariosEquivalence:
    def test_matches_scalar_draw_for_draw(self, config):
        gains_ref, fractions_ref = two_receiver_scenarios_scalar(config,
                                                                 seed=42)
        gains, fractions = two_receiver_scenarios(config, seed=42)
        np.testing.assert_allclose(gains, gains_ref, rtol=RTOL)
        assert fractions == fractions_ref

    def test_workers_do_not_change_chunked_results(self, config):
        serial = two_receiver_scenarios(config, seed=42, chunk_size=128)
        parallel = run_pooled(4, two_receiver_scenarios, config, seed=42,
                              chunk_size=128)
        assert np.array_equal(serial[0], parallel[0])
        assert serial[1] == parallel[1]

    def test_chunked_matches_scalar_per_chunk(self, config):
        """A chunked run is the scalar engine applied per spawned seed."""
        sizes = chunk_sizes(config.n_samples, 128)
        seeds = chunk_seeds(42, len(sizes))
        expected = np.concatenate([
            two_receiver_scenarios_scalar(
                MonteCarloConfig(n_samples=n), seed=s)[0]
            for s, n in zip(seeds, sizes)
        ])
        gains, _ = two_receiver_scenarios(config, seed=42, chunk_size=128)
        np.testing.assert_allclose(gains, expected, rtol=RTOL)


class TestOneReceiverTechniqueEquivalence:
    def test_matches_scalar_draw_for_draw(self, config):
        ref = one_receiver_technique_gains_scalar(config, seed=43)
        out = one_receiver_technique_gains(config, seed=43)
        assert set(out) == set(ref)
        for technique in ref:
            np.testing.assert_allclose(out[technique], ref[technique],
                                       rtol=RTOL, err_msg=technique)

    def test_workers_do_not_change_chunked_results(self, config):
        serial = one_receiver_technique_gains(config, seed=43,
                                              chunk_size=99)
        parallel = run_pooled(4, one_receiver_technique_gains, config,
                              seed=43, chunk_size=99)
        for technique in serial:
            assert np.array_equal(serial[technique], parallel[technique])


class TestTwoReceiverTechniqueEquivalence:
    def test_matches_scalar_draw_for_draw(self, config):
        ref = two_receiver_technique_gains_scalar(config, seed=44)
        out = two_receiver_technique_gains(config, seed=44)
        assert set(out) == set(ref)
        for technique in ref:
            np.testing.assert_allclose(out[technique], ref[technique],
                                       rtol=RTOL, err_msg=technique)

    def test_workers_do_not_change_chunked_results(self, config):
        serial = two_receiver_technique_gains(config, seed=44,
                                              chunk_size=77)
        parallel = run_pooled(4, two_receiver_technique_gains, config,
                              seed=44, chunk_size=77)
        for technique in serial:
            assert np.array_equal(serial[technique], parallel[technique])


class TestResultCacheIntegration:
    def test_second_call_is_served_from_cache(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        first, fr_first = two_receiver_scenarios(config, seed=7, cache=cache)
        stored = list(tmp_path.glob("*.npz"))
        assert len(stored) == 1
        # Poison the only entry's gains *and* refresh the sidecar digest
        # (a digest-consistent tamper); a cache hit must surface it.
        with np.load(stored[0]) as archive:
            poisoned = {name: archive[name].copy()
                        for name in archive.files}
        poisoned["gains"][:] = 123.0
        np.savez_compressed(stored[0], **poisoned)
        (meta_path,) = tmp_path.glob("*.json")
        meta = json.loads(meta_path.read_text())
        meta["sha256"] = array_digest(poisoned)
        meta_path.write_text(json.dumps(meta))
        second, fr_second = two_receiver_scenarios(config, seed=7,
                                                   cache=cache)
        assert np.all(second == 123.0)
        assert fr_second == fr_first

    def test_tampered_entry_is_quarantined_and_recomputed(self, config,
                                                          tmp_path):
        """A payload whose digest mismatches the sidecar is never served."""
        cache = ResultCache(tmp_path)
        first, fr_first = two_receiver_scenarios(config, seed=7, cache=cache)
        (entry,) = tmp_path.glob("*.npz")
        with np.load(entry) as archive:
            poisoned = {name: archive[name].copy()
                        for name in archive.files}
        poisoned["gains"][:] = 123.0
        np.savez_compressed(entry, **poisoned)  # sidecar digest left stale
        second, fr_second = two_receiver_scenarios(config, seed=7,
                                                   cache=cache)
        assert np.array_equal(second, first)
        assert fr_second == fr_first
        assert cache.quarantined == 1
        assert list((tmp_path / "corrupt").glob("*.npz"))

    def test_different_seeds_get_different_entries(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        two_receiver_scenarios(config, seed=1, cache=cache)
        two_receiver_scenarios(config, seed=2, cache=cache)
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_generator_seeds_are_not_cached(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        rng = np.random.default_rng(5)
        two_receiver_scenarios(config, rng, cache=cache)
        assert list(tmp_path.glob("*.npz")) == []

    def test_chunking_changes_the_key(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        two_receiver_scenarios(config, seed=1, cache=cache)
        two_receiver_scenarios(config, seed=1, chunk_size=128, cache=cache)
        assert len(list(tmp_path.glob("*.npz"))) == 2

    def test_technique_engine_roundtrip(self, config, tmp_path):
        cache = ResultCache(tmp_path)
        first = one_receiver_technique_gains(config, seed=3, cache=cache)
        second = one_receiver_technique_gains(config, seed=3, cache=cache)
        for technique in first:
            assert np.array_equal(first[technique], second[technique])

"""Synthetic upload-trace generator tests."""

import numpy as np
import pytest

from repro.traces.synthetic import (
    RESOLVE_BLOCK_STEPS,
    UploadTraceConfig,
    UploadTraceGenerator,
    occupancy_factor,
)


@pytest.fixture(scope="module")
def short_trace():
    config = UploadTraceConfig(duration_days=1.0)
    return UploadTraceGenerator(config).generate(seed=7)


class TestConfig:
    def test_defaults_are_paper_scale(self):
        config = UploadTraceConfig()
        assert config.duration_days == 14.0
        assert config.snapshot_interval_s == 900.0

    def test_n_snapshots(self):
        config = UploadTraceConfig(duration_days=1.0)
        assert config.n_snapshots == 96

    def test_rejects_bad_night_fraction(self):
        with pytest.raises(ValueError):
            UploadTraceConfig(night_fraction=1.5)

    def test_rejects_zero_aps(self):
        with pytest.raises(ValueError):
            UploadTraceConfig(ap_rows=0)

    def test_rejects_nonpositive_tx_power(self):
        with pytest.raises(ValueError, match="tx_power_w"):
            UploadTraceConfig(tx_power_w=0.0)


class TestOccupancy:
    def test_peaks_at_13h(self):
        values = [occupancy_factor(h * 3600.0, 0.1) for h in range(24)]
        assert values.index(max(values)) == 13

    def test_bounded(self):
        for h in range(0, 24):
            f = occupancy_factor(h * 3600.0, 0.2)
            assert 0.2 <= f <= 1.0

    def test_night_quieter_than_noon(self):
        assert occupancy_factor(3 * 3600.0, 0.1) < \
            occupancy_factor(13 * 3600.0, 0.1)


class TestGenerator:
    def test_deterministic(self):
        config = UploadTraceConfig(duration_days=0.25)
        a = UploadTraceGenerator(config).generate(seed=3)
        b = UploadTraceGenerator(config).generate(seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        config = UploadTraceConfig(duration_days=0.25)
        a = UploadTraceGenerator(config).generate(seed=3)
        b = UploadTraceGenerator(config).generate(seed=4)
        assert a != b

    def test_ap_names_within_config(self, short_trace):
        config = UploadTraceConfig()
        valid = {f"AP{i + 1}" for i in range(config.n_aps)}
        assert set(short_trace.ap_names) <= valid

    def test_rssi_above_sensitivity(self, short_trace):
        config = UploadTraceConfig()
        for snap in short_trace:
            for obs in snap.clients:
                assert obs.rssi_dbm >= config.sensitivity_dbm

    def test_rssi_plausible_indoor_range(self, short_trace):
        rssi = [obs.rssi_dbm for snap in short_trace
                for obs in snap.clients]
        assert np.median(rssi) < -20.0
        assert min(rssi) >= -95.0

    def test_timestamps_align_to_interval(self, short_trace):
        for snap in short_trace:
            assert snap.timestamp_s % 900.0 == 0.0

    def test_produces_pairable_snapshots(self, short_trace):
        # The whole point of the trace: snapshots with >= 2 clients.
        assert len(short_trace.busy_snapshots(2)) > 10

    def test_diurnal_load_visible(self):
        config = UploadTraceConfig(duration_days=4.0, peak_clients=30.0)
        trace = UploadTraceGenerator(config).generate(seed=5)
        day = [s.n_clients for s in trace
               if 10 * 3600 <= s.timestamp_s % 86400 <= 16 * 3600]
        night = [s.n_clients for s in trace
                 if s.timestamp_s % 86400 <= 5 * 3600]
        assert np.mean(day) > np.mean(night)

    def test_client_names_unique_within_snapshot(self, short_trace):
        for snap in short_trace:
            names = [c.client for c in snap.clients]
            assert len(set(names)) == len(names)


class TestVectorizedGoldenEquivalence:
    """``generate`` (per-step draws, block-batched RSS, association and
    assembly) must reproduce the frozen ``generate_scalar`` bit for
    bit — same snapshot order, same client names, same RSSI floats —
    for any seed and config (PR-1 convention)."""

    CONFIGS = [
        UploadTraceConfig(duration_days=0.25),
        UploadTraceConfig(duration_days=0.5, peak_clients=40.0),
        UploadTraceConfig(duration_days=0.25, ap_rows=1, ap_cols=2,
                          width_m=30.0, height_m=15.0),
        # No shadowing: the RSS matrix is fully deterministic.
        UploadTraceConfig(duration_days=0.25, shadowing_sigma_db=0.0),
        # Harsh clipping exercises the sensitivity-floor path.
        UploadTraceConfig(duration_days=0.25, sensitivity_dbm=-60.0,
                          pathloss_exponent=4.5),
        # 249 steps: ten full resolve blocks and a partial last one.
        UploadTraceConfig(duration_days=2.6, peak_clients=8.0),
        # So sparse that whole blocks draw no client, and with a floor
        # so high that some blocks keep none of the clients they drew.
        UploadTraceConfig(duration_days=3.0, peak_clients=0.05,
                          sensitivity_dbm=-50.0),
    ]

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=[f"cfg{i}" for i in range(len(CONFIGS))])
    @pytest.mark.parametrize("seed", [0, 7, 2010])
    def test_bit_identical_to_scalar(self, config, seed):
        generator = UploadTraceGenerator(config)
        assert generator.generate(seed) == generator.generate_scalar(seed)

    def test_progress_reports_every_snapshot(self):
        config = UploadTraceConfig(duration_days=0.25)
        calls = []
        UploadTraceGenerator(config).generate(
            seed=1, progress=lambda done, total: calls.append((done, total)))
        n = config.n_snapshots
        assert calls == [(k + 1, n) for k in range(n)]

    def test_timer_covers_all_phases(self):
        from repro.util.timing import PhaseTimer
        timer = PhaseTimer()
        config = UploadTraceConfig(duration_days=0.25)
        UploadTraceGenerator(config).generate(seed=1, timer=timer)
        assert list(timer.phases) == ["draw", "rss", "assemble"]
        assert all(t >= 0.0 for t in timer.phases.values())

    def test_default_config_constructed_per_instance(self):
        # RPR305 regression: the default config must not be a shared
        # class-level instance.
        a, b = UploadTraceGenerator(), UploadTraceGenerator()
        assert a.config == b.config
        assert a.config is not b.config


def _busy(snapshots):
    return sum(s.n_clients >= 2 for s in snapshots)


class TestPrefixAndDuration:
    """``generate(seed, until_busy=N)`` is the shortest whole-block
    prefix of ``generate(seed)`` holding N busy snapshots, and
    ``duration_s(seed)`` is the full trace's span without resolving
    it."""

    GOLDEN = TestVectorizedGoldenEquivalence.CONFIGS
    CONFIGS = [UploadTraceConfig(), GOLDEN[3], GOLDEN[4], GOLDEN[5],
               GOLDEN[6]]
    IDS = ["default", "no-shadowing", "harsh-clipping", "partial-block",
           "sparse"]

    @staticmethod
    def _block(config, snapshot):
        step = round(snapshot.timestamp_s / config.snapshot_interval_s)
        return step // RESOLVE_BLOCK_STEPS

    @pytest.fixture(scope="class", params=list(zip(CONFIGS, IDS)),
                    ids=IDS)
    def case(self, request):
        config = request.param[0]
        generator = UploadTraceGenerator(config)
        return config, generator, {seed: generator.generate(seed)
                                   for seed in (0, 2010)}

    @pytest.mark.parametrize("until_busy", [1, 40, 600])
    @pytest.mark.parametrize("seed", [0, 2010])
    def test_prefix_of_whole_blocks(self, case, seed, until_busy):
        config, generator, fulls = case
        full = fulls[seed]
        prefix = generator.generate(seed, until_busy=until_busy)
        n = len(prefix)
        assert prefix.snapshots == full.snapshots[:n]
        assert (prefix.building, prefix.snapshot_interval_s) == \
            (full.building, full.snapshot_interval_s)
        assert _busy(prefix) >= min(until_busy, _busy(full))
        if n < len(full):
            # It ends on a block boundary, after the block that
            # reached ``until_busy``.
            last = self._block(config, prefix.snapshots[-1])
            assert self._block(config, full.snapshots[n]) > last
            earlier = [s for s in prefix
                       if self._block(config, s) < last]
            assert _busy(earlier) < until_busy

    @pytest.mark.parametrize("seed", [0, 2010])
    def test_until_busy_above_trace_returns_full_trace(self, case, seed):
        _, generator, fulls = case
        full = fulls[seed]
        assert generator.generate(
            seed, until_busy=_busy(full) + 1) == full

    @pytest.mark.parametrize("seed", [0, 2010])
    def test_duration_matches_full_trace(self, case, seed):
        _, generator, fulls = case
        assert generator.duration_s(seed) == fulls[seed].duration_s

    def test_duration_falls_back_when_last_block_keeps_no_client(
            self, monkeypatch):
        # Seed 7 of the sparse config: the last block that draws clients
        # keeps none of them above its -50 dBm floor, so the trace's
        # last snapshot sits in an earlier block.
        generator = UploadTraceGenerator(self.GOLDEN[6])
        expected = generator.generate(7).duration_s
        calls = []
        generate = UploadTraceGenerator.generate

        def spy(self, *args, **kwargs):
            calls.append(args)
            return generate(self, *args, **kwargs)

        monkeypatch.setattr(UploadTraceGenerator, "generate", spy)
        assert generator.duration_s(7) == expected > 0.0
        assert len(calls) == 1

    def test_duration_replays_a_live_generator(self):
        # The fallback replays a copy of the starting stream, and the
        # generator passed in ends where ``generate`` leaves it.
        generator = UploadTraceGenerator(self.GOLDEN[6])
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        assert generator.duration_s(a) == generator.generate(b).duration_s
        assert a.random() == b.random()

"""Downlink measurement-campaign generator tests."""

import pytest

from repro.phy.rates import DOT11G
from repro.traces.downlink import DownlinkTraceConfig, DownlinkTraceGenerator


@pytest.fixture(scope="module")
def campaign():
    config = DownlinkTraceConfig(n_locations=30)
    return DownlinkTraceGenerator(config).generate(seed=11)


class TestConfig:
    def test_paper_defaults(self):
        config = DownlinkTraceConfig()
        assert config.n_aps == 5
        assert config.n_locations == 100
        assert config.target_success == 0.9

    def test_rejects_single_ap(self):
        with pytest.raises(ValueError):
            DownlinkTraceConfig(n_aps=1)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            DownlinkTraceConfig(target_success=1.0)


class TestCampaign:
    def test_location_count_and_names(self, campaign):
        assert len(campaign) == 30
        assert campaign[0].location == "L1"
        assert campaign[-1].location == "L30"

    def test_every_ap_measured(self, campaign):
        for m in campaign:
            assert m.ap_names == ["AP1", "AP2", "AP3", "AP4", "AP5"]
            assert set(m.clean_rate_bps) == set(m.snr_db)

    def test_interfered_pairs_complete(self, campaign):
        for m in campaign:
            assert len(m.interfered_rate_bps) == 5 * 4

    def test_rates_come_from_the_table(self, campaign):
        valid = set(DOT11G.rates_bps) | {0.0}
        for m in campaign:
            assert set(m.clean_rate_bps.values()) <= valid
            assert set(m.interfered_rate_bps.values()) <= valid

    def test_interference_never_raises_rate(self, campaign):
        for m in campaign:
            for (serving, interferer), rate in m.interfered_rate_bps.items():
                assert rate <= m.clean_rate_bps[serving]

    def test_higher_snr_higher_clean_rate(self, campaign):
        for m in campaign:
            ranked = sorted(m.snr_db, key=m.snr_db.get)
            rates = [m.clean_rate_bps[ap] for ap in ranked]
            assert rates == sorted(rates)

    def test_deterministic(self):
        config = DownlinkTraceConfig(n_locations=5)
        a = DownlinkTraceGenerator(config).generate(seed=2)
        b = DownlinkTraceGenerator(config).generate(seed=2)
        assert a == b

    def test_strong_interference_can_kill_link(self, campaign):
        # Somewhere in 30 locations x 20 pairs there must be a dead
        # interfered link (rate 0) — that is what makes the discrete
        # feasibility question interesting.
        dead = [rate for m in campaign
                for rate in m.interfered_rate_bps.values() if rate == 0.0]
        assert dead


class TestVectorizedGoldenEquivalence:
    """``generate`` (batched SNR rows, one batched rate search) must
    reproduce the frozen ``generate_scalar`` bit for bit, for any seed
    and config (PR-1 convention)."""

    CONFIGS = [
        DownlinkTraceConfig(n_locations=20),
        DownlinkTraceConfig(n_locations=15, n_aps=3,
                            corridor_length_m=60.0),
        # No shadowing: SNR rows are fully deterministic.
        DownlinkTraceConfig(n_locations=12, shadowing_sigma_db=0.0),
    ]

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=[f"cfg{i}" for i in range(len(CONFIGS))])
    @pytest.mark.parametrize("seed", [0, 11, 2010])
    def test_bit_identical_to_scalar(self, config, seed):
        generator = DownlinkTraceGenerator(config)
        assert generator.generate(seed) == generator.generate_scalar(seed)

    def test_progress_reports_every_location(self):
        config = DownlinkTraceConfig(n_locations=8)
        calls = []
        DownlinkTraceGenerator(config).generate(
            seed=1, progress=lambda done, total: calls.append((done, total)))
        assert calls[-1] == (8, 8)
        assert [done for done, _ in calls] == sorted(done
                                                     for done, _ in calls)

    def test_timer_covers_all_phases(self):
        from repro.util.timing import PhaseTimer
        timer = PhaseTimer()
        config = DownlinkTraceConfig(n_locations=6)
        DownlinkTraceGenerator(config).generate(seed=1, timer=timer)
        assert list(timer.phases) == ["draw", "measure", "assemble"]
        assert all(t >= 0.0 for t in timer.phases.values())

    def test_default_config_constructed_per_instance(self):
        # RPR305 regression: the default config must not be a shared
        # class-level instance.
        a, b = DownlinkTraceGenerator(), DownlinkTraceGenerator()
        assert a.config == b.config
        assert a.config is not b.config

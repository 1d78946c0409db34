"""Discrete rate-table tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy.error import PacketErrorModel
from repro.phy.rates import (
    DOT11N_MCS_COUNT,
    DOT11B,
    DOT11G,
    DOT11N_20MHZ,
    STANDARD_TABLES,
    RateStep,
    RateTable,
    best_discrete_rate,
    best_discrete_rate_batch,
)
from repro.util.units import db_to_linear


class TestTableDefinitions:
    def test_granularity_matches_paper(self):
        # "4 in 802.11b vs 8 in 802.11g vs 32 in 802.11n".  The 32 MCS
        # indices of 802.11n share several rate values, so the distinct
        # rate steps number 18 — still far finer than b/g.
        assert len(DOT11B) == 4
        assert len(DOT11G) == 8
        assert DOT11N_MCS_COUNT == 32
        assert len(DOT11N_20MHZ) == 18
        assert len(DOT11N_20MHZ) > len(DOT11G) > len(DOT11B)

    def test_dot11g_rates(self):
        assert [s.rate_bps / 1e6 for s in DOT11G.steps] == \
            [6, 9, 12, 18, 24, 36, 48, 54]

    def test_dot11b_rates(self):
        assert [s.rate_bps / 1e6 for s in DOT11B.steps] == [1, 2, 5.5, 11]

    def test_thresholds_monotone(self):
        for table in STANDARD_TABLES.values():
            thresholds = [s.min_sinr_db for s in table.steps]
            assert thresholds == sorted(thresholds)

    def test_rates_strictly_increasing(self):
        for table in STANDARD_TABLES.values():
            rates = table.rates_bps
            assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_registry_names(self):
        assert set(STANDARD_TABLES) == {"802.11b", "802.11g",
                                        "802.11n-20MHz"}


class TestTableValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RateTable(name="x", steps=())

    def test_rejects_unsorted_rates(self):
        with pytest.raises(ValueError, match="increasing"):
            RateTable.from_pairs("x", [(2e6, 5.0), (1e6, 3.0)])

    def test_rejects_nonmonotone_thresholds(self):
        with pytest.raises(ValueError, match="threshold"):
            RateTable.from_pairs("x", [(1e6, 5.0), (2e6, 3.0)])

    def test_rejects_duplicate_rates(self):
        with pytest.raises(ValueError):
            RateTable.from_pairs("x", [(1e6, 3.0), (1e6, 5.0)])


class TestBestRate:
    def test_below_all_thresholds(self):
        assert DOT11G.best_rate(float(db_to_linear(2.0))) == 0.0

    def test_at_lowest_threshold(self):
        assert DOT11G.best_rate(float(db_to_linear(5.0))) == 6e6

    def test_top_rate(self):
        assert DOT11G.best_rate(float(db_to_linear(40.0))) == 54e6

    def test_intermediate(self):
        assert DOT11G.best_rate(float(db_to_linear(15.0))) == 24e6

    def test_zero_sinr(self):
        assert DOT11G.best_rate(0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DOT11G.best_rate(-1.0)

    def test_best_rate_db_consistent(self):
        for sinr_db in (0.0, 5.0, 13.9, 24.0, 50.0):
            assert DOT11G.best_rate_db(sinr_db) == \
                DOT11G.best_rate(float(db_to_linear(sinr_db)))

    @given(st.floats(min_value=0.0, max_value=1e8))
    def test_monotone_in_sinr(self, sinr):
        assert DOT11G.best_rate(sinr) <= DOT11G.best_rate(sinr * 2 + 1)


class TestQuantize:
    def test_below_lowest(self):
        assert DOT11G.quantize(5e6) == 0.0

    def test_exact_rate(self):
        assert DOT11G.quantize(24e6) == 24e6

    def test_between_rates(self):
        assert DOT11G.quantize(30e6) == 24e6

    def test_above_top(self):
        assert DOT11G.quantize(1e9) == 54e6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DOT11G.quantize(-1.0)


class TestThresholdLookup:
    def test_known_rate(self):
        assert DOT11G.threshold_for_rate(6e6) == 5.0

    def test_unknown_rate(self):
        with pytest.raises(KeyError):
            DOT11G.threshold_for_rate(7e6)


class TestBestDiscreteRate:
    def test_without_error_model_equals_hard_threshold(self):
        sinr = float(db_to_linear(15.0))
        assert best_discrete_rate(DOT11G, sinr) == DOT11G.best_rate(sinr)

    def test_90pct_needs_margin_over_threshold(self):
        model = PacketErrorModel()
        # Exactly at a step's threshold, success is only ~50 %, so the
        # 90 % criterion must choose a lower rate than the hard rule.
        sinr = float(db_to_linear(14.0))  # exactly the 24 Mbps threshold
        assert DOT11G.best_rate(sinr) == 24e6
        assert best_discrete_rate(DOT11G, sinr, error_model=model) < 24e6

    def test_converges_with_margin(self):
        model = PacketErrorModel()
        sinr = float(db_to_linear(17.0))  # 3 dB above the 24 Mbps step
        assert best_discrete_rate(DOT11G, sinr, error_model=model) == 24e6

    def test_zero_sinr_gives_zero(self):
        assert best_discrete_rate(DOT11G, 0.0,
                                  error_model=PacketErrorModel()) == 0.0

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            best_discrete_rate(DOT11G, 1.0, target_success=1.5)


class TestBestDiscreteRateBatch:
    """The batched search returns the scalar search's rate element for
    element, on the 90 % boundary of every 802.11g step too, where one
    ulp of the logistic decides the rate."""

    MODEL = PacketErrorModel()

    def scalar(self, sinrs):
        return [best_discrete_rate(DOT11G, float(v), error_model=self.MODEL,
                                   packet_bits=12000.0, target_success=0.9)
                for v in sinrs]

    def batch(self, sinrs):
        return best_discrete_rate_batch(
            DOT11G, np.asarray(sinrs, dtype=float), self.MODEL,
            packet_bits=12000.0, target_success=0.9).tolist()

    def test_matches_scalar_on_every_90pct_boundary(self):
        grid = [0.0]
        for step in DOT11G.steps:
            edge = float(db_to_linear(
                self.MODEL.sinr_db_for_success(step, 0.9)))
            grid += [np.nextafter(edge, 0.0), edge,
                     np.nextafter(edge, np.inf)]
        rates = self.batch(grid)
        assert rates == self.scalar(grid)
        assert rates[0] == 0.0  # SINR 0 carries nothing

    def test_negative_sinr_raises_like_packet_success(self):
        with pytest.raises(ValueError) as scalar:
            self.MODEL.packet_success(-1.0, DOT11G.steps[0])
        with pytest.raises(ValueError) as batch:
            self.batch([1.0, -1.0])
        assert str(batch.value) == str(scalar.value)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            best_discrete_rate_batch(DOT11G, np.ones(2), self.MODEL,
                                     target_success=1.5)


class TestRateStep:
    def test_linear_threshold(self):
        step = RateStep(rate_bps=1e6, min_sinr_db=10.0)
        assert step.min_sinr_linear == pytest.approx(10.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RateStep(rate_bps=0.0, min_sinr_db=0.0)

"""Packet-error model tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.phy.error import PacketErrorModel, packet_success_probability
from repro.phy.rates import DOT11G, RateStep
from repro.util.units import db_to_linear


class TestSuccessCurve:
    def test_half_at_threshold(self):
        assert packet_success_probability(10.0, 10.0) == 0.5

    def test_saturates_high(self):
        assert packet_success_probability(60.0, 10.0) == 1.0

    def test_saturates_low(self):
        assert packet_success_probability(-60.0, 10.0) == 0.0

    def test_monotone_in_sinr(self):
        probs = [packet_success_probability(x, 10.0)
                 for x in (5.0, 8.0, 10.0, 12.0, 15.0)]
        assert probs == sorted(probs)

    def test_longer_packets_fail_more(self):
        short = packet_success_probability(11.0, 10.0, packet_bits=4000)
        long_ = packet_success_probability(11.0, 10.0, packet_bits=24000)
        assert long_ < short

    def test_reference_length_neutral(self):
        assert packet_success_probability(
            11.0, 10.0, packet_bits=12000, reference_bits=12000) == \
            pytest.approx(1 / (1 + math.exp(-1.5)))

    def test_rejects_bad_steepness(self):
        with pytest.raises(ValueError):
            packet_success_probability(10.0, 10.0, steepness_per_db=0.0)

    @given(st.floats(min_value=-30.0, max_value=60.0))
    def test_valid_probability(self, sinr_db):
        p = packet_success_probability(sinr_db, 10.0)
        assert 0.0 <= p <= 1.0


class TestPacketErrorModel:
    def test_packet_success_at_threshold(self):
        model = PacketErrorModel()
        step = RateStep(6e6, 5.0)
        assert model.packet_success(float(db_to_linear(5.0)), step) == \
            pytest.approx(0.5)

    def test_zero_sinr(self):
        model = PacketErrorModel()
        assert model.packet_success(0.0, DOT11G.steps[0]) == 0.0

    def test_rejects_negative_sinr(self):
        with pytest.raises(ValueError):
            PacketErrorModel().packet_success(-1.0, DOT11G.steps[0])

    def test_inversion_round_trip(self):
        model = PacketErrorModel()
        step = RateStep(12e6, 8.0)
        for target in (0.5, 0.9, 0.99):
            sinr_db = model.sinr_db_for_success(step, target)
            p = model.packet_success(float(db_to_linear(sinr_db)), step)
            assert p == pytest.approx(target, abs=1e-6)

    def test_90pct_margin_is_small(self):
        model = PacketErrorModel()
        step = RateStep(12e6, 8.0)
        sinr_db = model.sinr_db_for_success(step, 0.9)
        assert 8.0 < sinr_db < 11.0

    def test_inversion_rejects_degenerate_targets(self):
        model = PacketErrorModel()
        step = RateStep(12e6, 8.0)
        for target in (0.0, 1.0):
            with pytest.raises(ValueError):
                model.sinr_db_for_success(step, target)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            PacketErrorModel(steepness_per_db=-1.0)


class TestPacketSuccessBatch:
    """``packet_success_batch`` equals ``packet_success`` element for
    element.  The grid spans the whole logistic, where ``np.exp`` and
    ``math.exp`` round differently on a few percent of arguments."""

    def test_matches_scalar_element_for_element(self):
        model = PacketErrorModel()
        sinrs = np.append(db_to_linear(np.linspace(-30.0, 60.0, 1001)), 0.0)
        for step in DOT11G.steps:
            for bits in (12000.0, 4000.0):
                expected = [model.packet_success(float(v), step, bits)
                            for v in sinrs]
                assert model.packet_success_batch(
                    sinrs, step, bits).tolist() == expected

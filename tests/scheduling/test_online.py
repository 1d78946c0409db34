"""Online (arrival-driven) scheduling tests."""

import numpy as np
import pytest

from repro.scheduling.online import (
    ArrivalClient,
    _arrival_times,
    compare_policies_online,
    simulate_online,
)
from repro.scheduling.scheduler import SicScheduler
from repro.techniques.pairing import TechniqueSet


@pytest.fixture
def scheduler(channel):
    return SicScheduler(channel=channel, techniques=TechniqueSet.ALL)


def make_clients(channel, spec):
    """spec: list of (snr_db, arrival_rate_hz)."""
    n0 = channel.noise_w
    return [ArrivalClient(f"C{i + 1}", 10 ** (snr / 10) * n0, rate)
            for i, (snr, rate) in enumerate(spec)]


class TestArrivalClient:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ArrivalClient("c", 1e-9, 0.0)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            ArrivalClient("", 1e-9, 1.0)


class TestSimulateOnline:
    def test_unknown_policy_rejected(self, scheduler, channel):
        clients = make_clients(channel, [(30, 100.0)])
        with pytest.raises(ValueError, match="policy"):
            simulate_online(scheduler, clients, 1.0, policy="magic")

    def test_duplicate_names_rejected(self, scheduler):
        clients = [ArrivalClient("X", 1e-9, 1.0),
                   ArrivalClient("X", 1e-10, 1.0)]
        with pytest.raises(ValueError, match="unique"):
            simulate_online(scheduler, clients, 1.0)

    def test_every_arrival_served(self, scheduler, channel):
        clients = make_clients(channel, [(30, 2000.0), (18, 2000.0)])
        metrics = simulate_online(scheduler, clients, 0.2,
                                  policy="sic_pairing", seed=5)
        assert metrics.leftover_packets == 0
        assert metrics.served_packets == len(metrics.delays_s)
        assert metrics.served_packets > 0

    def test_deterministic_with_seed(self, scheduler, channel):
        clients = make_clients(channel, [(30, 1000.0), (18, 1000.0)])
        a = simulate_online(scheduler, clients, 0.2, seed=9)
        b = simulate_online(scheduler, clients, 0.2, seed=9)
        assert a.delays_s == b.delays_s

    def test_delays_positive(self, scheduler, channel):
        clients = make_clients(channel, [(30, 3000.0), (18, 3000.0)])
        metrics = simulate_online(scheduler, clients, 0.1, seed=2)
        assert all(delay > 0.0 for delay in metrics.delays_s)

    def test_utilisation_bounded(self, scheduler, channel):
        clients = make_clients(channel, [(30, 5000.0), (18, 5000.0)])
        metrics = simulate_online(scheduler, clients, 0.2, seed=3)
        assert 0.0 < metrics.utilisation <= 1.0

    def test_light_load_mostly_idle(self, scheduler, channel):
        clients = make_clients(channel, [(30, 20.0)])
        metrics = simulate_online(scheduler, clients, 1.0, seed=4)
        assert metrics.utilisation < 0.1

    def test_fifo_serves_in_arrival_order(self, scheduler, channel):
        # Single client: FIFO delays must be non-decreasing during a
        # busy period and every packet served.
        clients = make_clients(channel, [(12, 8000.0)])
        metrics = simulate_online(scheduler, clients, 0.05,
                                  policy="fifo", seed=6)
        assert metrics.served_packets == len(metrics.delays_s)
        assert metrics.leftover_packets == 0

    def test_memo_skips_repeat_batches(self, scheduler, channel,
                                       monkeypatch):
        # Two backlogged clients give at most three distinct batches;
        # without the schedule memo every batch (one or two packets)
        # would run the matching again.
        calls = []
        schedule = SicScheduler.schedule

        def spy(self, batch):
            calls.append(len(batch))
            return schedule(self, batch)

        monkeypatch.setattr(SicScheduler, "schedule", spy)
        clients = make_clients(channel, [(30, 2000.0), (18, 2000.0)])
        metrics = simulate_online(scheduler, clients, 0.25,
                                  policy="sic_pairing", seed=17)
        assert 0 < len(calls) < metrics.served_packets / 2

    @pytest.mark.parametrize("policy", ["fifo", "sic_pairing"])
    def test_metrics_match_recorded_values(self, scheduler, channel,
                                           policy):
        # Recorded before the memo became two local dicts, from a run
        # pinned equal to the unmemoised path.
        served, mean_delay_s = {
            "fifo": (3113, 0.02080088007967508),
            "sic_pairing": (3113, 0.0003526747115696341),
        }[policy]
        clients = make_clients(channel, [(32, 3000.0), (16, 3000.0),
                                         (26, 3000.0), (13, 3000.0)])
        metrics = simulate_online(scheduler, clients, 0.25, policy=policy,
                                  seed=17)
        assert metrics.served_packets == served
        assert metrics.leftover_packets == 0
        np.testing.assert_array_max_ulp(metrics.mean_delay_s, mean_delay_s,
                                        maxulp=4)


class TestPolicyComparison:
    def test_same_sample_paths(self, scheduler, channel):
        clients = make_clients(channel, [(32, 3000.0), (16, 3000.0),
                                         (26, 3000.0), (13, 3000.0)])
        out = compare_policies_online(scheduler, clients, 0.2, seed=11)
        assert out["fifo"].served_packets == \
            out["sic_pairing"].served_packets

    def test_sic_pairing_cuts_delay_under_load(self, scheduler, channel):
        # A loaded system with pairable SNR gaps: batching + SIC drains
        # the queue faster, so mean sojourn time drops.
        clients = make_clients(channel, [(32, 4000.0), (16, 4000.0),
                                         (28, 4000.0), (13, 4000.0)])
        out = compare_policies_online(scheduler, clients, 0.3, seed=13)
        assert out["sic_pairing"].mean_delay_s < out["fifo"].mean_delay_s

    def test_sic_pairing_cuts_busy_time(self, scheduler, channel):
        clients = make_clients(channel, [(32, 4000.0), (16, 4000.0),
                                         (28, 4000.0), (13, 4000.0)])
        out = compare_policies_online(scheduler, clients, 0.3, seed=17)
        assert out["sic_pairing"].busy_time_s <= \
            out["fifo"].busy_time_s + 1e-9

    def test_p95_reported(self, scheduler, channel):
        clients = make_clients(channel, [(30, 3000.0), (18, 3000.0)])
        out = compare_policies_online(scheduler, clients, 0.2, seed=19)
        for metrics in out.values():
            assert metrics.p95_delay_s >= metrics.mean_delay_s * 0.5

    def test_replay_deterministic_across_calls(self, scheduler, channel):
        # Regression for the unseeded default_rng() that previously
        # backed the replay: the same seed must reproduce the entire
        # comparison, delay for delay, across independent calls.
        clients = make_clients(channel, [(32, 3000.0), (16, 3000.0),
                                         (26, 3000.0), (13, 3000.0)])
        first = compare_policies_online(scheduler, clients, 0.2, seed=23)
        second = compare_policies_online(scheduler, clients, 0.2, seed=23)
        for policy in ("fifo", "sic_pairing"):
            assert first[policy].delays_s == second[policy].delays_s
            assert first[policy].busy_time_s == second[policy].busy_time_s

    def test_single_run_matches_comparison_sample_path(self, scheduler,
                                                       channel):
        # The comparison must drive each policy with the same stream a
        # direct simulate_online call sees for that seed.
        clients = make_clients(channel, [(30, 3000.0), (18, 3000.0)])
        out = compare_policies_online(scheduler, clients, 0.2, seed=29)
        solo = simulate_online(scheduler, clients, 0.2,
                               policy="sic_pairing", seed=29)
        assert out["sic_pairing"].delays_s == solo.delays_s


class TestVectorisedArrivals:
    """The per-draw arrival generator: ordering, horizon and a pinned
    event stream."""

    def test_events_match_recorded_values(self, channel):
        # Recorded with the block-draw generator this loop replaced,
        # which was pinned draw for draw to it.
        clients = make_clients(channel, [(30, 3000.0), (18, 150.0),
                                         (24, 40.0), (12, 5000.0)])
        events = _arrival_times(clients, 0.25, np.random.default_rng(2010))
        counts = {c.name: sum(1 for _, n in events if n == c.name)
                  for c in clients}
        assert counts == {"C1": 719, "C2": 40, "C3": 11, "C4": 1246}
        assert (events[0][1], events[-1][1]) == ("C4", "C1")
        np.testing.assert_array_max_ulp(
            np.array([events[0][0], events[-1][0]]),
            np.array([5.86303669263914e-05, 0.24994003728964007]),
            maxulp=4)

    def test_no_arrivals_within_horizon(self, channel):
        clients = make_clients(channel, [(25, 0.01)])
        rng = np.random.default_rng(5)
        assert _arrival_times(clients, 0.1, rng) == []

    def test_events_sorted_and_within_horizon(self, channel):
        clients = make_clients(channel, [(30, 1000.0), (18, 1000.0)])
        events = _arrival_times(clients, 0.2, np.random.default_rng(1))
        assert events == sorted(events)
        assert all(0.0 < t <= 0.2 for t, _ in events)

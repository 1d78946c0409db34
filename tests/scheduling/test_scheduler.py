"""SIC-aware scheduler tests (paper Section 6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phy.shannon import Channel
from repro.scheduling import scheduler as scheduler_module
from repro.scheduling.baselines import brute_force_schedule
from repro.scheduling.scheduler import (
    Schedule,
    ScheduledSlot,
    SicScheduler,
    UploadClient,
)
from repro.techniques.pairing import PairMode, TechniqueSet

rss_values = st.floats(min_value=1e-13, max_value=1e-6)


def make_clients(rss_list):
    return [UploadClient(f"C{i + 1}", rss) for i, rss in enumerate(rss_list)]


@pytest.fixture
def scheduler(channel):
    return SicScheduler(channel=channel, techniques=TechniqueSet.ALL)


class TestUploadClient:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            UploadClient("", 1e-9)

    def test_rejects_bad_rss(self):
        with pytest.raises(ValueError):
            UploadClient("c", 0.0)


class TestScheduleBasics:
    def test_empty_backlog(self, scheduler):
        schedule = scheduler.schedule([])
        assert schedule.slots == ()
        assert schedule.total_time_s == 0.0
        assert schedule.gain == 1.0

    def test_single_client_goes_solo(self, scheduler):
        clients = make_clients([1e-9])
        schedule = scheduler.schedule(clients)
        assert len(schedule.slots) == 1
        assert schedule.slots[0].clients == ("C1",)
        assert schedule.slots[0].mode is PairMode.SERIAL
        assert schedule.gain == 1.0

    def test_duplicate_names_rejected(self, scheduler):
        clients = [UploadClient("X", 1e-9), UploadClient("X", 1e-10)]
        with pytest.raises(ValueError, match="unique"):
            scheduler.schedule(clients)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_live", [0, 2, 3, 6, 7])
    def test_zero_rate_client_rejected(self, n_live, monkeypatch):
        # The last client's clean Shannon rate rounds to 0, so its
        # airtime is infinite.  Both entry points must refuse the
        # backlog before any matching, naming the client rather than
        # a vertex pair, at odd and even backlog sizes (the client
        # alone included), and costing its pairs must not warn.
        def no_matching(*args, **kwargs):
            raise AssertionError("the matching ran")

        monkeypatch.setattr(scheduler_module, "min_weight_perfect_matching",
                            no_matching)
        scheduler = SicScheduler(techniques=TechniqueSet.ALL)
        clients = [UploadClient(f"C{i}", 1e-9 * (i + 1))
                   for i in range(n_live)]
        clients.append(UploadClient("dead", 1e-30))
        pre = scheduler.precompute_costs(clients)
        for call in (lambda: scheduler.schedule(clients),
                     lambda: scheduler.schedule(clients, precomputed=pre),
                     lambda: scheduler.schedule_gain(clients),
                     lambda: scheduler.schedule_gain(clients,
                                                     precomputed=pre),
                     # Fig. 13's path: the cost graph comes precomputed.
                     lambda: scheduler.schedule_gain(
                         clients, precomputed=pre, cost_graph=({}, None))):
            with pytest.raises(ValueError,
                               match=r"client 'dead' cannot be scheduled"):
                call()

    def test_every_client_scheduled_once(self, scheduler, rng):
        clients = make_clients(10 ** rng.uniform(-12, -8, size=9))
        schedule = scheduler.schedule(clients)
        assert sorted(schedule.client_names) == sorted(
            c.name for c in clients)

    def test_odd_count_has_exactly_one_solo(self, scheduler, rng):
        clients = make_clients(10 ** rng.uniform(-12, -8, size=7))
        schedule = scheduler.schedule(clients)
        solos = [s for s in schedule.slots if not s.is_pair]
        assert len(solos) == 1

    def test_even_count_all_pairs(self, scheduler, rng):
        # Pair costs never exceed serial, so a perfect matching on an
        # even count never leaves anyone solo.
        clients = make_clients(10 ** rng.uniform(-12, -8, size=8))
        schedule = scheduler.schedule(clients)
        assert all(s.is_pair for s in schedule.slots)

    def test_gain_at_least_one(self, scheduler, rng):
        for _ in range(10):
            clients = make_clients(10 ** rng.uniform(-13, -7, size=6))
            assert scheduler.schedule(clients).gain >= 1.0 - 1e-12

    def test_str_rendering(self, scheduler):
        schedule = scheduler.schedule(make_clients([1e-9, 1e-11]))
        text = str(schedule)
        assert "gain" in text and "C1" in text


class TestOptimality:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(rss_values, min_size=2, max_size=6))
    def test_matches_brute_force(self, rss_list):
        scheduler = SicScheduler(channel=Channel(),
                                 techniques=TechniqueSet.ALL)
        clients = make_clients(rss_list)
        optimal = scheduler.schedule(clients)
        brute = brute_force_schedule(scheduler, clients)
        assert optimal.total_time_s == pytest.approx(
            brute.total_time_s, rel=1e-9)

    def test_no_sic_scheduler_is_serial(self, channel, rng):
        scheduler = SicScheduler(channel=channel, sic_enabled=False)
        clients = make_clients(10 ** rng.uniform(-12, -8, size=6))
        schedule = scheduler.schedule(clients)
        assert schedule.total_time_s == pytest.approx(
            scheduler.serial_time(clients))
        assert schedule.gain == pytest.approx(1.0)

    def test_techniques_never_hurt_schedule(self, channel, rng):
        clients = make_clients(10 ** rng.uniform(-12, -8, size=8))
        plain = SicScheduler(channel=channel).schedule(clients)
        full = SicScheduler(channel=channel,
                            techniques=TechniqueSet.ALL).schedule(clients)
        assert full.total_time_s <= plain.total_time_s + 1e-12


class TestCostGraph:
    def test_even_count_no_dummy(self, scheduler):
        clients = make_clients([1e-9, 1e-10, 1e-11, 1e-12])
        costs, dummy = scheduler.build_cost_graph(clients)
        assert dummy is None
        assert len(costs) == 6

    def test_odd_count_dummy_edges(self, scheduler):
        clients = make_clients([1e-9, 1e-10, 1e-11])
        costs, dummy = scheduler.build_cost_graph(clients)
        assert dummy == 3
        # 3 pair edges + 3 dummy edges.
        assert len(costs) == 6
        for i, client in enumerate(clients):
            assert costs[(i, dummy)] == pytest.approx(
                scheduler.solo_cost(client))

    def test_pair_cost_symmetric_in_clients(self, scheduler):
        a, b = UploadClient("a", 1e-9), UploadClient("b", 1e-11)
        assert scheduler.pair_cost(a, b).airtime_s == pytest.approx(
            scheduler.pair_cost(b, a).airtime_s)


class TestFastPathGoldenEquivalence:
    """The vectorised pipeline must reproduce the frozen scalar pipeline
    exactly (PR-1 convention): same cost graphs, same schedules, bit for
    bit — not approximately."""

    def random_backlog(self, rng, n, channel):
        snrs_db = rng.uniform(3.0, 45.0, size=n)
        return make_clients([
            float(10.0 ** (snr / 10.0)) * channel.noise_w
            for snr in snrs_db])

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 15, 16, 33])
    def test_cost_graph_bit_identical(self, scheduler, channel, rng, n):
        clients = self.random_backlog(rng, n, channel)
        fast_costs, fast_dummy = scheduler.build_cost_graph(clients)
        ref_costs, ref_dummy = scheduler.build_cost_graph_scalar(clients)
        assert fast_dummy == ref_dummy
        assert fast_costs == ref_costs  # exact float equality

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 34])
    def test_schedule_bit_identical(self, scheduler, channel, rng, n):
        clients = self.random_backlog(rng, n, channel)
        fast = scheduler.schedule(clients)
        ref = scheduler.schedule_scalar(clients)
        assert fast.to_dict() == ref.to_dict()

    def test_schedule_bit_identical_many_seeds(self, scheduler, channel):
        import numpy as np
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 20))
            clients = self.random_backlog(rng, n, channel)
            fast = scheduler.schedule(clients)
            ref = scheduler.schedule_scalar(clients)
            assert fast.to_dict() == ref.to_dict(), f"seed={seed} n={n}"

    def test_no_sic_and_reduced_techniques_agree(self, channel, rng):
        for techniques in (TechniqueSet.NONE, TechniqueSet.POWER_CONTROL,
                           TechniqueSet.MULTIRATE):
            for sic_enabled in (True, False):
                sched = SicScheduler(channel=channel, techniques=techniques,
                                     sic_enabled=sic_enabled)
                clients = self.random_backlog(rng, 9, channel)
                assert sched.schedule(clients).to_dict() == \
                    sched.schedule_scalar(clients).to_dict()

    def test_degenerate_backlogs_agree(self, scheduler):
        for clients in ([], make_clients([1e-9]),
                        make_clients([1e-9, 1e-9]),
                        make_clients([1e-9] * 5)):
            assert scheduler.schedule(clients).to_dict() == \
                scheduler.schedule_scalar(clients).to_dict()

    def test_phase_timer_covers_all_three_phases(self, scheduler):
        from repro.util.timing import PhaseTimer
        timer = PhaseTimer()
        scheduler.schedule(make_clients([1e-9, 1e-10, 1e-11, 1e-12]),
                           timer=timer)
        assert list(timer.phases) == ["cost_build", "matching", "assembly"]
        assert all(t >= 0.0 for t in timer.phases.values())
        assert timer.count("matching") == 1

    def test_timer_is_optional(self, scheduler):
        clients = make_clients([1e-9, 1e-10])
        assert scheduler.schedule(clients) == \
            scheduler.schedule(clients, timer=None)


class TestPrecomputedCosts:
    """``precompute_costs`` batches the technique-independent arrays;
    every consumer (``schedule``, ``schedule_gain``, ``build_cost_graph``)
    must produce the exact same floats with and without it."""

    def random_backlog(self, rng, n, channel):
        snrs_db = rng.uniform(3.0, 45.0, size=n)
        return make_clients([
            float(10.0 ** (snr / 10.0)) * channel.noise_w
            for snr in snrs_db])

    def test_fields_match_scalar_costs(self, scheduler, channel, rng):
        clients = self.random_backlog(rng, 9, channel)
        pre = scheduler.precompute_costs(clients)
        assert pre.names == tuple(c.name for c in clients)
        assert pre.rss_w.tolist() == [c.rss_w for c in clients]
        for i, client in enumerate(clients):
            assert pre.solo_airtime_s[i] == scheduler.solo_cost(client)
        assert pre.serial_time_s == scheduler.serial_time(clients)

    def test_cost_graph_identical_with_precompute(self, scheduler, channel,
                                                  rng):
        for n in (2, 3, 7, 12):
            clients = self.random_backlog(rng, n, channel)
            pre = scheduler.precompute_costs(clients)
            assert scheduler.build_cost_graph(clients, precomputed=pre) == \
                scheduler.build_cost_graph(clients)

    def test_schedule_identical_with_precompute(self, scheduler, channel,
                                                rng):
        for n in (2, 5, 8, 13):
            clients = self.random_backlog(rng, n, channel)
            pre = scheduler.precompute_costs(clients)
            assert scheduler.schedule(clients, precomputed=pre).to_dict() \
                == scheduler.schedule(clients).to_dict()

    def test_schedule_gain_equals_full_schedule(self, channel, rng):
        for techniques in (TechniqueSet.NONE, TechniqueSet.POWER_CONTROL,
                           TechniqueSet.MULTIRATE, TechniqueSet.ALL):
            sched = SicScheduler(channel=channel, techniques=techniques)
            for n in (1, 2, 3, 5, 8, 13):
                clients = self.random_backlog(rng, n, channel)
                # Exact float equality, not approx: the gain path must
                # accumulate the same floats in the same order.
                assert sched.schedule_gain(clients) == \
                    sched.schedule(clients).gain

    def test_schedule_gain_with_precompute_and_cost_graph(self, scheduler,
                                                          channel, rng):
        for n in (2, 4, 7, 11):
            clients = self.random_backlog(rng, n, channel)
            pre = scheduler.precompute_costs(clients)
            graph = scheduler.build_cost_graph(clients, precomputed=pre)
            ref = scheduler.schedule(clients).gain
            assert scheduler.schedule_gain(clients, precomputed=pre) == ref
            assert scheduler.schedule_gain(clients, precomputed=pre,
                                           cost_graph=graph) == ref

    def test_schedule_gain_totals_with_builtin_sum(self, scheduler):
        # Schedule.total_time_s totals with sum(), compensated on Python
        # 3.12+, where a left-to-right += loop over these gives 1.0.
        clients = make_clients([1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9])
        costs = {(i, j): 10.0 for i in range(6) for j in range(i + 1, 6)}
        costs.update({(0, 1): 1.0, (2, 3): 1e-16, (4, 5): 1e-16})
        assert scheduler.schedule_gain(clients, cost_graph=(costs, None)) \
            == scheduler.serial_time(clients) / sum([1.0, 1e-16, 1e-16], 0.0)

    def test_precompute_shared_across_technique_sets(self, channel, rng):
        # The arrays depend only on (channel, packet_bits), so ONE
        # precompute must serve all three Fig. 13 technique sets.
        clients = self.random_backlog(rng, 8, channel)
        pre = SicScheduler(channel=channel).precompute_costs(clients)
        for techniques in (TechniqueSet.NONE, TechniqueSet.POWER_CONTROL,
                           TechniqueSet.MULTIRATE):
            sched = SicScheduler(channel=channel, techniques=techniques)
            assert sched.schedule(clients, precomputed=pre).to_dict() == \
                sched.schedule(clients).to_dict()

    def test_degenerate_backlogs(self, scheduler):
        assert scheduler.schedule_gain([]) == 1.0
        assert scheduler.schedule_gain(make_clients([1e-9])) == 1.0

    def test_mismatched_precompute_rejected(self, scheduler, channel, rng):
        clients = self.random_backlog(rng, 4, channel)
        other = self.random_backlog(rng, 5, channel)
        pre = scheduler.precompute_costs(other)
        with pytest.raises(ValueError, match="precomputed"):
            scheduler.schedule(clients, precomputed=pre)
        with pytest.raises(ValueError, match="precomputed"):
            scheduler.schedule_gain(clients, precomputed=pre)
        # Same backlog, but solo airtimes of another channel or packet
        # size: a 24,000-bit scheduler would report half its serial time.
        for built_by in (SicScheduler(channel=channel, packet_bits=24000.0),
                         SicScheduler(channel=Channel(bandwidth_hz=40e6))):
            for backlog in (clients, clients[:1]):
                pre = built_by.precompute_costs(backlog)
                for call in (scheduler.schedule, scheduler.schedule_gain):
                    with pytest.raises(ValueError,
                                       match="another channel or packet"):
                        call(backlog, precomputed=pre)
        # Same names, a tenth of the RSS: its solo airtimes and serial
        # baseline would skew the gain (1.068 would read 1.390 through
        # schedule and 1.090 through schedule_gain).
        backlog = [UploadClient(f"C{i}", 1e-9 * (i + 1)) for i in range(4)]
        quieter = [UploadClient(c.name, c.rss_w / 10) for c in backlog]
        every = SicScheduler(techniques=TechniqueSet.ALL)
        pre = every.precompute_costs(quieter)
        for call in (every.schedule, every.schedule_gain):
            with pytest.raises(ValueError,
                               match="precomputed costs do not match"):
                call(backlog, precomputed=pre)
        with pytest.raises(ValueError, match="precomputed costs do not match"):
            every.pairing_to_schedule(backlog, [(0, 1), (2, 3)],
                                      precomputed=pre)

    def test_duplicate_names_rejected_by_gain_path(self, scheduler):
        clients = [UploadClient("X", 1e-9), UploadClient("X", 1e-10)]
        with pytest.raises(ValueError, match="unique"):
            scheduler.schedule_gain(clients)


class TestPairingToSchedule:
    def test_explicit_pairing(self, scheduler):
        clients = make_clients([1e-9, 1e-10, 1e-11])
        schedule = scheduler.pairing_to_schedule(clients, [(0, 2)], [1])
        assert len(schedule.slots) == 2
        assert schedule.slots[0].clients == ("C1", "C3")

    def test_incomplete_cover_rejected(self, scheduler):
        clients = make_clients([1e-9, 1e-10, 1e-11])
        with pytest.raises(ValueError, match="exactly once"):
            scheduler.pairing_to_schedule(clients, [(0, 1)], [])

    def test_double_cover_rejected(self, scheduler):
        clients = make_clients([1e-9, 1e-10])
        with pytest.raises(ValueError, match="exactly once"):
            scheduler.pairing_to_schedule(clients, [(0, 1)], [0])


class TestScheduledSlot:
    def test_is_pair(self):
        pair = ScheduledSlot(("a", "b"), 1.0, PairMode.SIC)
        solo = ScheduledSlot(("a",), 1.0, PairMode.SERIAL)
        assert pair.is_pair and not solo.is_pair

    def test_schedule_total(self):
        schedule = Schedule(
            slots=(ScheduledSlot(("a",), 1.5, PairMode.SERIAL),
                   ScheduledSlot(("b", "c"), 2.5, PairMode.SIC)),
            serial_time_s=8.0)
        assert schedule.total_time_s == 4.0
        assert schedule.gain == 2.0

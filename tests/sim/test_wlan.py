"""Uplink-simulator tests: the analytic layer must agree with the
operational receiver, slot by slot."""

import numpy as np
import pytest

from repro.phy.shannon import Channel
from repro.scheduling.scheduler import SicScheduler, UploadClient
from repro.sic.receiver import SicReceiver
from repro.sim.wlan import SimulationError, UplinkSimulator
from repro.techniques.pairing import PairMode, TechniqueSet


def make_clients(rss_list):
    return [UploadClient(f"C{i + 1}", rss) for i, rss in enumerate(rss_list)]


@pytest.fixture
def simulator(channel):
    return UplinkSimulator(channel=channel)


class TestCrossValidation:
    @pytest.mark.parametrize("techniques", [
        TechniqueSet.NONE, TechniqueSet.POWER_CONTROL,
        TechniqueSet.MULTIRATE, TechniqueSet.ALL,
    ])
    def test_simulated_time_equals_scheduled(self, channel, simulator, rng,
                                             techniques):
        scheduler = SicScheduler(channel=channel, techniques=techniques)
        for _ in range(5):
            clients = make_clients(10 ** rng.uniform(-12.5, -8, size=7))
            schedule = scheduler.schedule(clients)
            metrics = simulator.run(schedule, clients)
            assert metrics.all_decoded
            assert metrics.completion_time_s == pytest.approx(
                schedule.total_time_s, rel=1e-9)

    def test_every_packet_bits_delivered(self, channel, simulator, rng):
        scheduler = SicScheduler(channel=channel,
                                 techniques=TechniqueSet.ALL)
        clients = make_clients(10 ** rng.uniform(-12, -8, size=6))
        schedule = scheduler.schedule(clients)
        metrics = simulator.run(schedule, clients)
        assert metrics.delivered_bits == pytest.approx(
            simulator.packet_bits * len(clients), rel=1e-9)

    def test_sic_slots_report_concurrency(self, channel, simulator):
        n0 = channel.noise_w
        scheduler = SicScheduler(channel=channel)
        clients = make_clients([1e6 * n0, 1e3 * n0])
        schedule = scheduler.schedule(clients)
        assert schedule.slots[0].mode is PairMode.SIC
        metrics = simulator.run(schedule, clients)
        assert metrics.concurrency_fraction() == 1.0


class TestPlanScheduleGolden:
    """Slot planning over every mode, pinned to recorded values."""

    @staticmethod
    def all_modes(channel):
        from repro.scheduling.scheduler import Schedule, ScheduledSlot
        n0 = channel.noise_w
        rss = {"C1": 1e6 * n0, "C2": 1e3 * n0, "C3": 1e3 * n0,
               "C4": 2e5 * n0}
        slots = (
            ScheduledSlot(("C1",), 1.0, PairMode.SERIAL),
            ScheduledSlot(("C1", "C2"), 1.0, PairMode.SERIAL),
            ScheduledSlot(("C1", "C2"), 1.0, PairMode.SIC),
            # Exact power tie: the plan's >= tie-break must pick C2.
            ScheduledSlot(("C2", "C3"), 1.0, PairMode.SIC),
            ScheduledSlot(("C1", "C2"), 1.0, PairMode.SIC_POWER_CONTROL),
            ScheduledSlot(("C1", "C4"), 1.0, PairMode.SIC_MULTIRATE),
        )
        return Schedule(slots=slots, serial_time_s=6.0), rss

    def test_all_modes_and_tie_break(self, channel, simulator):
        schedule, rss = self.all_modes(channel)
        tie_plan = simulator.plan_schedule(schedule, rss)[3]
        assert tie_plan[0].client == "C2" and tie_plan[0].role == "strong"

    def test_plans_match_recorded_values(self, channel, simulator):
        # (client, role, offset_s, rate_bps) per segment, recorded with
        # the batched planner that the per-slot loop replaced.
        recorded = [
            [("C1", "", 0.0, 398631400.24036986)],
            [("C1", "", 0.0, 398631400.24036986),
             ("C2", "", 3.01029973874716e-05, 199344525.17671984)],
            [("C1", "strong", 0.0, 199315714.5183031),
             ("C2", "weak", 0.0, 199344525.17671984)],
            [("C2", "strong", 0.0, 19985583.86139495),
             ("C3", "weak", 0.0, 199344525.17671984)],
            [("C1", "strong", 0.0, 199330112.6430495),
             ("C2", "weak", 0.0, 199330112.6430495)],
            [("C4", "weak", 0.0, 352192953.7578797),
             ("C1", "strong", 0.0, 51699129.79018704),
             ("C1", "", 3.407223191708026e-05, 398631400.24036986)],
        ]
        schedule, rss = self.all_modes(channel)
        plans = simulator.plan_schedule(schedule, rss)
        assert [len(plan) for plan in plans] == [len(r) for r in recorded]
        segments = [seg for plan in plans for seg in plan]
        expected = [seg for plan in recorded for seg in plan]
        assert [(seg.client, seg.role) for seg in segments] == \
            [e[:2] for e in expected]
        np.testing.assert_array_max_ulp(
            np.array([(seg.offset_s, seg.rate_bps) for seg in segments]),
            np.array([e[2:] for e in expected]), maxulp=4)

    def test_unknown_mode_rejected(self, channel, simulator):
        from repro.scheduling.scheduler import Schedule, ScheduledSlot
        schedule = Schedule(
            slots=(ScheduledSlot(("C1", "C2"), 1.0, "bogus"),),
            serial_time_s=1.0)
        rss = {"C1": 1e-9, "C2": 1e-10}
        with pytest.raises(ValueError, match="unknown slot mode"):
            simulator.plan_schedule(schedule, rss)


class TestRunGolden:
    """``run``'s packets and strict-mode message, pinned to recorded
    values: every field of every record, in event order."""

    #: ``TestPlanScheduleGolden.all_modes`` under a receiver that
    #: cancels 90%, non-strict: (client, start_s, end_s, rate_bps, bits,
    #: decoded, concurrent_with) per packet.
    RECORDED = [
        ("C1", 0.0, 3.01029973874716e-05, 398631400.24036986, 12000.0,
         True, ()),
        ("C1", 3.01029973874716e-05, 6.02059947749432e-05,
         398631400.24036986, 12000.0, True, ()),
        ("C2", 6.02059947749432e-05, 0.00012040328381191046,
         199344525.17671984, 12000.0, True, ()),
        ("C2", 0.00012040328381191046, 0.0001806005728488777,
         199344525.17671984, 12000.0, False, ("C1",)),
        ("C1", 0.00012040328381191046, 0.00018060927423770826,
         199315714.5183031, 12000.0, True, ("C2",)),
        ("C3", 0.00018060927423770826, 0.0002408065632746755,
         199344525.17671984, 12000.0, False, ("C2",)),
        ("C2", 0.00018060927423770826, 0.0007810420703583029,
         19985583.86139495, 12000.0, True, ("C3",)),
        ("C1", 0.0007810420703583029, 0.0008412437119511564,
         199330112.6430495, 12000.0, True, ("C2",)),
        ("C2", 0.0007810420703583029, 0.0008412437119511564,
         199330112.6430495, 12000.0, False, ("C1",)),
        ("C4", 0.0008412437119511564, 0.0008753159438682367,
         352192953.7578797, 12000.0, False, ("C1",)),
        ("C1", 0.0008412437119511564, 0.0008753159438682367,
         51699129.79018704, 1761.5047401224858, True, ("C4",)),
        ("C1", 0.0008753159438682367, 0.0009010000602065478,
         398631400.24036986, 10238.495259877514, True, ()),
    ]

    @staticmethod
    def records(metrics):
        return [(p.client, p.start_s, p.end_s, p.rate_bps, p.bits,
                 p.decoded, p.concurrent_with) for p in metrics.packets]

    def test_packets_match_recorded_values(self, channel):
        schedule, rss = TestPlanScheduleGolden.all_modes(channel)
        clients = [UploadClient(name, power) for name, power in rss.items()]
        lossy = UplinkSimulator(
            channel=channel,
            receiver=SicReceiver(channel=channel,
                                 cancellation_efficiency=0.9),
            strict=False)
        assert self.records(lossy.run(schedule, clients)) == self.RECORDED
        # A perfect receiver decodes every packet of the same timeline.
        perfect = UplinkSimulator(channel=channel).run(schedule, clients)
        assert self.records(perfect) == [
            record[:5] + (True,) + record[6:] for record in self.RECORDED]

    def test_strict_message(self, channel):
        schedule, rss = TestPlanScheduleGolden.all_modes(channel)
        clients = [UploadClient(name, power) for name, power in rss.items()]
        lossy = UplinkSimulator(
            channel=channel,
            receiver=SicReceiver(channel=channel,
                                 cancellation_efficiency=0.9))
        with pytest.raises(SimulationError) as info:
            lossy.run(schedule, clients)
        assert str(info.value) == (
            "packet from C2 failed to decode (rate 1.99e+08 bps, "
            "power 4.01e-10 W, concurrent 4.01e-07 W)")


class TestImperfectCancellation:
    def test_residue_breaks_tight_schedules(self, channel, rng):
        # A schedule costed for perfect cancellation must fail under a
        # receiver with residue: the weak packet's rate is now
        # infeasible.  (This is the imperfection ablation's mechanism.)
        scheduler = SicScheduler(channel=channel)
        n0 = channel.noise_w
        clients = make_clients([1e6 * n0, 1e3 * n0])
        schedule = scheduler.schedule(clients)
        assert schedule.slots[0].mode is PairMode.SIC
        lossy = UplinkSimulator(
            channel=channel,
            receiver=SicReceiver(channel=channel,
                                 cancellation_efficiency=0.9),
            strict=False)
        metrics = lossy.run(schedule, clients)
        assert metrics.failed_count > 0

    def test_strict_mode_raises(self, channel):
        scheduler = SicScheduler(channel=channel)
        n0 = channel.noise_w
        clients = make_clients([1e6 * n0, 1e3 * n0])
        schedule = scheduler.schedule(clients)
        lossy = UplinkSimulator(
            channel=channel,
            receiver=SicReceiver(channel=channel,
                                 cancellation_efficiency=0.9),
            strict=True)
        with pytest.raises(SimulationError):
            lossy.run(schedule, clients)

    def test_serial_schedules_survive_residue(self, channel, rng):
        # No concurrency, nothing to cancel: imperfection is harmless.
        scheduler = SicScheduler(channel=channel, sic_enabled=False)
        clients = make_clients(10 ** rng.uniform(-12, -8, size=5))
        schedule = scheduler.schedule(clients)
        lossy = UplinkSimulator(
            channel=channel,
            receiver=SicReceiver(channel=channel,
                                 cancellation_efficiency=0.5))
        metrics = lossy.run(schedule, clients)
        assert metrics.all_decoded


class TestValidation:
    def test_unknown_client_rejected(self, channel, simulator):
        scheduler = SicScheduler(channel=channel)
        clients = make_clients([1e-9, 1e-10])
        schedule = scheduler.schedule(clients)
        with pytest.raises(ValueError, match="unknown clients"):
            simulator.run(schedule, clients[:1])

    def test_receiver_channel_mismatch_rejected(self, channel):
        other = Channel(bandwidth_hz=channel.bandwidth_hz * 2,
                        noise_w=channel.noise_w)
        with pytest.raises(ValueError, match="channel"):
            UplinkSimulator(channel=channel,
                            receiver=SicReceiver(channel=other))

    def test_empty_schedule(self, channel, simulator):
        scheduler = SicScheduler(channel=channel)
        metrics = simulator.run(scheduler.schedule([]), [])
        assert metrics.completion_time_s == 0.0

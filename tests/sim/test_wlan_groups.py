"""Group-schedule simulation tests: k-SIC analytic vs operational."""

import pytest

from repro.scheduling.groups import (
    GroupSchedule,
    GroupSlot,
    exhaustive_group_schedule,
    greedy_group_schedule,
)
from repro.scheduling.scheduler import UploadClient
from repro.sic.ksic import SuccessiveReceiver, equal_rate_group_powers
from repro.sic.receiver import SicReceiver
from repro.sim.wlan import SimulationError, UplinkSimulator


def make_clients(rss_list):
    return [UploadClient(f"C{i + 1}", rss) for i, rss in enumerate(rss_list)]


@pytest.fixture
def simulator(channel):
    return UplinkSimulator(channel=channel)


class TestGroupCrossValidation:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_simulated_time_equals_scheduled(self, channel, simulator,
                                             rng, k):
        clients = make_clients(10 ** rng.uniform(-12.5, -8, size=9))
        schedule = greedy_group_schedule(channel, clients,
                                         max_group_size=k)
        metrics = simulator.run_groups(schedule, clients)
        assert metrics.all_decoded
        assert metrics.completion_time_s == pytest.approx(
            schedule.total_time_s, rel=1e-9)

    def test_exhaustive_schedule_executes(self, channel, simulator, rng):
        clients = make_clients(10 ** rng.uniform(-12, -8, size=6))
        schedule = exhaustive_group_schedule(channel, clients,
                                             max_group_size=3)
        metrics = simulator.run_groups(schedule, clients)
        assert metrics.all_decoded
        assert metrics.completion_time_s == pytest.approx(
            schedule.total_time_s, rel=1e-9)

    def test_ladder_group_all_decode_concurrently(self, channel,
                                                  simulator):
        powers = equal_rate_group_powers(channel, 3, 10.0)
        clients = make_clients(powers)
        schedule = greedy_group_schedule(channel, clients,
                                         max_group_size=3)
        assert len(schedule.slots) == 1 and schedule.slots[0].used_sic
        metrics = simulator.run_groups(schedule, clients)
        assert metrics.all_decoded
        assert metrics.concurrency_fraction() == 1.0

    def test_capped_receiver_fails_deep_groups(self, channel):
        powers = equal_rate_group_powers(channel, 3, 10.0)
        clients = make_clients(powers)
        schedule = greedy_group_schedule(channel, clients,
                                         max_group_size=3)
        capped = SuccessiveReceiver(channel=channel, max_cancellations=1)
        sim = UplinkSimulator(channel=channel, strict=False)
        metrics = sim.run_groups(schedule, clients, receiver=capped)
        assert metrics.failed_count == 1  # the third layer is lost

    def test_strict_mode_raises_on_capped_receiver(self, channel):
        powers = equal_rate_group_powers(channel, 3, 10.0)
        clients = make_clients(powers)
        schedule = greedy_group_schedule(channel, clients,
                                         max_group_size=3)
        capped = SuccessiveReceiver(channel=channel, max_cancellations=1)
        sim = UplinkSimulator(channel=channel, strict=True)
        with pytest.raises(SimulationError):
            sim.run_groups(schedule, clients, receiver=capped)

    def test_unknown_client_rejected(self, channel, simulator):
        clients = make_clients([1e-9, 1e-10])
        schedule = greedy_group_schedule(channel, clients)
        with pytest.raises(ValueError, match="unknown"):
            simulator.run_groups(schedule, clients[:1])

    def test_bits_delivered(self, channel, simulator, rng):
        clients = make_clients(10 ** rng.uniform(-12, -8, size=7))
        schedule = greedy_group_schedule(channel, clients,
                                         max_group_size=3)
        metrics = simulator.run_groups(schedule, clients)
        assert metrics.delivered_bits == pytest.approx(
            simulator.packet_bits * len(clients), rel=1e-9)


class _DeafReceiver(SicReceiver):
    """Decodes no lone packet, so serialised slots fail."""

    def decode_single(self, tx, interference_w=0.0):
        return False


class TestRunGroupsGolden:
    """``run_groups``' packets and strict-mode messages, pinned to
    recorded values: every field of every record, in event order."""

    #: (client, start_s, end_s, rate_bps, bits, decoded, concurrent_with)
    #: per packet, judged by a one-cancellation receiver, non-strict.
    RECORDED = [
        ("C1", 0.0, 0.0001734388957907327, 69188632.37274595, 12000.0,
         True, ("C2", "C3")),
        ("C2", 0.0, 0.0001734388957907327, 69188632.37274595, 12000.0,
         True, ("C1", "C3")),
        ("C3", 0.0, 0.0001734388957907327, 69188632.37274595, 12000.0,
         False, ("C1", "C2")),
        ("C4", 0.0001734388957907327, 0.00020751112770781298,
         352192953.7578797, 12000.0, True, ()),
        ("C5", 0.00020751112770781298, 0.00026770841674478025,
         199344525.17671984, 12000.0, True, ()),
        ("C1", 0.00026770841674478025, 0.00032629082126844975,
         204839662.9938866, 12000.0, True, ("C4",)),
        ("C4", 0.00026770841674478025, 0.00034904927742188856,
         147527330.05414522, 12000.0, True, ("C1",)),
        ("C5", 0.00034904927742188856, 0.00040924656645885583,
         199344525.17671984, 12000.0, True, ()),
    ]

    @staticmethod
    def schedule_and_clients(channel):
        """A k = 3 ladder, a serialised pair, a k = 2 group and a solo."""
        n0 = channel.noise_w
        powers = equal_rate_group_powers(channel, 3, 10.0)
        clients = make_clients(powers + [2e5 * n0, 1e3 * n0])
        schedule = GroupSchedule(slots=(
            GroupSlot(("C1", "C2", "C3"), 1.0, True),
            GroupSlot(("C4", "C5"), 1.0, False),
            GroupSlot(("C4", "C1"), 1.0, True),
            GroupSlot(("C5",), 1.0, True),
        ), serial_time_s=4.0)
        return schedule, clients

    def test_packets_match_recorded_values(self, channel):
        schedule, clients = self.schedule_and_clients(channel)
        capped = SuccessiveReceiver(channel=channel, max_cancellations=1)
        sim = UplinkSimulator(channel=channel, strict=False)
        metrics = sim.run_groups(schedule, clients, receiver=capped)
        assert [(p.client, p.start_s, p.end_s, p.rate_bps, p.bits,
                 p.decoded, p.concurrent_with)
                for p in metrics.packets] == self.RECORDED

    def test_strict_group_message(self, channel):
        schedule, clients = self.schedule_and_clients(channel)
        capped = SuccessiveReceiver(channel=channel, max_cancellations=1)
        with pytest.raises(SimulationError) as info:
            UplinkSimulator(channel=channel).run_groups(
                schedule, clients, receiver=capped)
        assert str(info.value) == "group packet from C3 failed to decode"

    def test_strict_solo_message(self, channel):
        schedule, clients = self.schedule_and_clients(channel)
        sim = UplinkSimulator(channel=channel,
                              receiver=_DeafReceiver(channel=channel))
        with pytest.raises(SimulationError) as info:
            sim.run_groups(schedule, clients)
        assert str(info.value) == "solo packet from C4 failed to decode"

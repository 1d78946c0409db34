"""Uplink WLAN simulation: execute a schedule against the SIC receiver.

The scheduler promises that each slot's transmissions fit in the slot's
duration *and* decode at the AP.  This simulator re-derives each slot's
concrete transmission plan (who transmits when, at which power and
bitrate) and asks the operational receiver whether each packet actually
decodes: pair schedules through :meth:`UplinkSimulator.plan_slot` and
the :class:`~repro.sic.receiver.SicReceiver`, k-SIC group schedules
through the successive rate limits and a
:class:`~repro.sic.ksic.SuccessiveReceiver`.  Both kinds of schedule
are judged before the run and then played by one loop on the
discrete-event engine.  With perfect cancellation every packet must
decode and every measured slot duration must equal the scheduled one —
the integration tests assert both.  With an *imperfect* receiver
(``cancellation_efficiency < 1``) failures surface here, which is how
the imperfection ablation measures SIC's collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.phy.shannon import Channel, airtime, shannon_rate
from repro.scheduling.scheduler import Schedule, ScheduledSlot, UploadClient
from repro.sic.receiver import SicReceiver, Transmission
from repro.sim.engine import EventScheduler
from repro.sim.metrics import PacketRecord, SimulationMetrics
from repro.techniques.multirate import multirate_pair_airtime
from repro.techniques.pairing import PairMode
from repro.techniques.power_control import power_controlled_pair_airtime
from repro.util.validation import check_positive


class SimulationError(RuntimeError):
    """Raised in strict mode when a scheduled packet fails to decode."""


@dataclass(frozen=True)
class _PlannedTx:
    """One planned transmission segment inside a slot."""

    client: str
    power_w: float
    rate_bps: float
    bits: float
    offset_s: float        # start offset within the slot
    #: Power of the concurrent signal during this segment (0 if alone).
    concurrent_power_w: float = 0.0
    concurrent_client: str = ""
    #: Planned decode role during the overlap: "strong" (decoded first,
    #: interference-limited) or "weak" (decoded after cancellation).
    #: Resolves the order explicitly when the two powers are equal.
    role: str = ""

    @property
    def duration_s(self) -> float:
        return self.bits / self.rate_bps


@dataclass(frozen=True)
class _Packet:
    """One packet of a slot, judged before the run starts."""

    client: str
    offset_s: float        # start offset within the slot
    duration_s: float
    rate_bps: float
    bits: float
    decoded: bool
    concurrent_with: Tuple[str, ...]
    #: What strict mode raises if the packet does not decode.
    failure: str


def _rss_by_name(schedule, clients: Sequence[UploadClient]
                 ) -> Dict[str, float]:
    """Each client's RSS by name; every scheduled client must have one."""
    rss = {c.name: c.rss_w for c in clients}
    missing = [n for slot in schedule.slots for n in slot.clients
               if n not in rss]
    if missing:
        raise ValueError(f"schedule references unknown clients {missing}")
    return rss


@dataclass
class UplinkSimulator:
    """Simulates upload schedules at one SIC-capable AP."""

    channel: Channel = field(default_factory=Channel)
    packet_bits: float = 12000.0
    receiver: SicReceiver = None  # type: ignore[assignment]
    strict: bool = True

    def __post_init__(self) -> None:
        check_positive("packet_bits", self.packet_bits)
        if self.receiver is None:
            self.receiver = SicReceiver(channel=self.channel)
        if self.receiver.channel != self.channel:
            raise ValueError("receiver and simulator must share a channel")

    # ------------------------------------------------------------------
    # Slot planning: reconstruct the concrete PHY plan for each slot.
    # ------------------------------------------------------------------

    def plan_slot(self, slot: ScheduledSlot,
                  rss: Dict[str, float]) -> List[_PlannedTx]:
        """Expand a schedule slot into planned transmission segments."""
        b, n0 = self.channel.bandwidth_hz, self.channel.noise_w
        bits = self.packet_bits

        if not slot.is_pair:
            name = slot.clients[0]
            rate = shannon_rate(b, rss[name], 0.0, n0)
            return [_PlannedTx(name, rss[name], rate, bits, 0.0)]

        name_a, name_b = slot.clients
        rss_a, rss_b = rss[name_a], rss[name_b]
        if rss_a >= rss_b:
            strong_name, strong_rss = name_a, rss_a
            weak_name, weak_rss = name_b, rss_b
        else:
            strong_name, strong_rss = name_b, rss_b
            weak_name, weak_rss = name_a, rss_a

        if slot.mode is PairMode.SERIAL:
            rate_a = shannon_rate(b, rss_a, 0.0, n0)
            rate_b = shannon_rate(b, rss_b, 0.0, n0)
            t_a = float(airtime(bits, rate_a))
            return [
                _PlannedTx(name_a, rss_a, rate_a, bits, 0.0),
                _PlannedTx(name_b, rss_b, rate_b, bits, t_a),
            ]

        if slot.mode is PairMode.SIC:
            rate_strong = shannon_rate(b, strong_rss, weak_rss, n0)
            rate_weak = shannon_rate(b, weak_rss, 0.0, n0)
            return [
                _PlannedTx(strong_name, strong_rss, rate_strong, bits, 0.0,
                           concurrent_power_w=weak_rss,
                           concurrent_client=weak_name, role="strong"),
                _PlannedTx(weak_name, weak_rss, rate_weak, bits, 0.0,
                           concurrent_power_w=strong_rss,
                           concurrent_client=strong_name, role="weak"),
            ]

        if slot.mode is PairMode.SIC_POWER_CONTROL:
            controlled = power_controlled_pair_airtime(
                self.channel, bits, rss_a, rss_b)
            weak_used = controlled.weak_rss_w
            rate_strong = shannon_rate(b, controlled.strong_rss_w,
                                       weak_used, n0)
            rate_weak = shannon_rate(b, weak_used, 0.0, n0)
            return [
                _PlannedTx(strong_name, controlled.strong_rss_w,
                           rate_strong, bits, 0.0,
                           concurrent_power_w=weak_used,
                           concurrent_client=weak_name, role="strong"),
                _PlannedTx(weak_name, weak_used, rate_weak, bits, 0.0,
                           concurrent_power_w=controlled.strong_rss_w,
                           concurrent_client=strong_name, role="weak"),
            ]

        if slot.mode is PairMode.SIC_MULTIRATE:
            plan = multirate_pair_airtime(self.channel, bits, rss_a, rss_b)
            rate_strong_int = shannon_rate(b, strong_rss, weak_rss, n0)
            rate_strong_clean = shannon_rate(b, strong_rss, 0.0, n0)
            rate_weak = shannon_rate(b, weak_rss, 0.0, n0)
            segments = [
                _PlannedTx(weak_name, weak_rss, rate_weak, bits, 0.0,
                           concurrent_power_w=strong_rss,
                           concurrent_client=strong_name, role="weak"),
            ]
            if plan.boost_s > 0.0:
                overlap_bits = rate_strong_int * plan.overlap_s
                boost_bits = bits - overlap_bits
                segments.append(
                    _PlannedTx(strong_name, strong_rss, rate_strong_int,
                               overlap_bits, 0.0,
                               concurrent_power_w=weak_rss,
                               concurrent_client=weak_name, role="strong"))
                segments.append(
                    _PlannedTx(strong_name, strong_rss, rate_strong_clean,
                               boost_bits, plan.overlap_s))
            else:
                segments.append(
                    _PlannedTx(strong_name, strong_rss, rate_strong_int,
                               bits, 0.0,
                               concurrent_power_w=weak_rss,
                               concurrent_client=weak_name, role="strong"))
            return segments

        raise ValueError(f"unknown slot mode {slot.mode!r}")

    def plan_schedule(self, schedule: Schedule,
                      rss: Dict[str, float]) -> List[List[_PlannedTx]]:
        """Expand every slot of ``schedule``, in order."""
        return [self.plan_slot(slot, rss) for slot in schedule.slots]

    # ------------------------------------------------------------------
    # Execution: every packet is planned and judged up front, so a
    # planning error surfaces before any event fires instead of mid-run;
    # then one loop plays the slots.
    # ------------------------------------------------------------------

    def run(self, schedule: Schedule,
            clients: Sequence[UploadClient]) -> SimulationMetrics:
        """Play a schedule through the event engine; return metrics."""
        rss = _rss_by_name(schedule, clients)
        return self._play([[self._judged(seg) for seg in plan]
                           for plan in self.plan_schedule(schedule, rss)])

    def run_groups(self, schedule, clients: Sequence[UploadClient],
                   receiver=None,
                   planned_efficiency: float = 1.0) -> SimulationMetrics:
        """Execute a :class:`~repro.scheduling.groups.GroupSchedule`.

        Transmission rates are re-derived with ``planned_efficiency``
        (what the *scheduler* assumed — 1.0 by default, matching
        :func:`repro.scheduling.groups.greedy_group_schedule`); the
        possibly different ``receiver`` (default: perfect, unbounded
        :class:`~repro.sic.ksic.SuccessiveReceiver`) then judges them.
        As with :meth:`run`, strict mode raises if any scheduled packet
        fails to decode.
        """
        from repro.sic.ksic import SuccessiveReceiver, successive_rate_limits

        if receiver is None:
            receiver = SuccessiveReceiver(channel=self.channel)
        rss = _rss_by_name(schedule, clients)
        bits = self.packet_bits
        b, n0 = self.channel.bandwidth_hz, self.channel.noise_w
        plans: List[List[_Packet]] = []
        for slot in schedule.slots:
            powers = [rss[name] for name in slot.clients]
            packets: List[_Packet] = []
            if slot.used_sic and len(slot.clients) > 1:
                rates = successive_rate_limits(self.channel, powers,
                                               planned_efficiency)
                outcome = receiver.resolve(
                    [Transmission(p, r, name) for name, p, r
                     in zip(slot.clients, powers, rates)])
                for name, rate, ok in zip(slot.clients, rates,
                                          outcome.decoded):
                    packets.append(_Packet(
                        name, 0.0, bits / rate, rate, bits, ok,
                        tuple(n for n in slot.clients if n != name),
                        f"group packet from {name} failed to decode"))
            else:
                # Serialised slot: members go one after another, clean.
                offset = 0.0
                for name, power in zip(slot.clients, powers):
                    rate = shannon_rate(b, power, 0.0, n0)
                    packets.append(_Packet(
                        name, offset, bits / rate, rate, bits,
                        self.receiver.decode_single(
                            Transmission(power, rate, name)),
                        (), f"solo packet from {name} failed to decode"))
                    offset += bits / rate
            plans.append(packets)
        return self._play(plans)

    def _judged(self, seg: _PlannedTx) -> _Packet:
        """A planned segment with the operational receiver's verdict."""
        return _Packet(
            seg.client, seg.offset_s, seg.duration_s, seg.rate_bps,
            seg.bits, self._decode(seg),
            (seg.concurrent_client,) if seg.concurrent_client else (),
            f"packet from {seg.client} failed to decode "
            f"(rate {seg.rate_bps:.3g} bps, power {seg.power_w:.3g} W, "
            f"concurrent {seg.concurrent_power_w:.3g} W)")

    def _play(self, plans: List[List[_Packet]]) -> SimulationMetrics:
        """Play judged slots back to back on one event engine.

        A slot starts when the previous slot's last packet ends.  Each
        packet is recorded at its end event, where strict mode raises
        its failure if it did not decode.
        """
        engine = EventScheduler()
        metrics = SimulationMetrics()

        def start_slot(index: int) -> None:
            if index >= len(plans):
                return
            slot_start = engine.now_s
            slot_end = slot_start
            for packet in plans[index]:
                begin = slot_start + packet.offset_s
                end = begin + packet.duration_s
                slot_end = max(slot_end, end)

                def finish(packet=packet, begin=begin, end=end) -> None:
                    metrics.record(PacketRecord(
                        packet.client, begin, end, packet.rate_bps,
                        packet.bits, packet.decoded, packet.concurrent_with))
                    if self.strict and not packet.decoded:
                        raise SimulationError(packet.failure)

                engine.schedule_at(end, finish, label=f"end:{packet.client}")
            engine.schedule_at(slot_end, lambda: start_slot(index + 1),
                               label=f"slot:{index + 1}")

        if plans:
            engine.schedule_at(0.0, lambda: start_slot(0), label="slot:0")
        engine.run()
        return metrics

    def _decode(self, seg: _PlannedTx) -> bool:
        """Ask the operational receiver whether this segment decodes."""
        tx = Transmission(seg.power_w, seg.rate_bps, seg.client)
        if seg.concurrent_power_w <= 0.0:
            return self.receiver.decode_single(tx)
        # The planned decode role breaks exact power ties: at equal RSS
        # either order is physically available and the plan fixes one.
        if seg.role == "strong" or (seg.role == ""
                                    and seg.power_w
                                    > seg.concurrent_power_w):
            limit = self.receiver.strong_rate_limit(
                seg.power_w, seg.concurrent_power_w)
            return seg.rate_bps <= limit
        # This segment is the weaker signal: it decodes only if the
        # receiver could decode it after cancelling the stronger one.
        # The stronger partner's actual rate does not matter for the
        # weak side's limit, only the cancellation residue does, so we
        # compare against the weak rate limit directly.
        return (self.receiver.sic_enabled
                and seg.rate_bps <= self.receiver.weak_rate_limit(
                    seg.concurrent_power_w, seg.power_w))
    # NOTE: in a real SIC chain the weak packet also requires the strong
    # packet to decode first; the strict integration tests cover that by
    # checking the strong segment's own decode outcome in the same slot.

"""The SIC-aware upload scheduler (paper Section 6, Fig. 12).

Problem statement (verbatim from the paper): *given a set of backlogged
clients and their respective maximum bitrates to the AP, find all pairs
of clients and their associated transmit powers, such that the total
time to upload all the backlogged traffic is minimum.*

The reduction: build a graph with one vertex per backlogged client and
an edge for every client pair weighted by the pair's minimum joint
completion time ``t_ij`` (serial vs SIC vs SIC + enabled techniques —
see :func:`repro.techniques.pairing.pair_airtime`).  For an odd client
count, add a dummy vertex whose edge to client ``i`` costs ``i``'s solo
transmission time.  A minimum-weight perfect matching of this graph is
exactly the optimal pairing; slots can then run in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.phy.shannon import Channel
from repro.scheduling.matching import min_weight_perfect_matching
from repro.scheduling.matching_scalar import min_weight_perfect_matching_scalar
from repro.techniques.pairing import (
    PairAirtime,
    PairMode,
    TechniqueSet,
    pair_airtime,
    pair_airtime_batch,
    solo_airtime,
    solo_airtime_batch,
)
from repro.util.timing import PhaseTimer, maybe_phase
from repro.util.validation import check_positive


@dataclass(frozen=True)
class UploadClient:
    """A backlogged client: its name and its RSS at the AP (max power)."""

    name: str
    rss_w: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("client name must be non-empty")
        check_positive("rss_w", self.rss_w)


@dataclass(frozen=True)
class ScheduledSlot:
    """One schedule slot: a pair transmitting jointly, or a solo client."""

    clients: Tuple[str, ...]
    duration_s: float
    mode: PairMode

    @property
    def is_pair(self) -> bool:
        return len(self.clients) == 2


@dataclass(frozen=True)
class Schedule:
    """A complete upload schedule with its serial baseline."""

    slots: Tuple[ScheduledSlot, ...]
    serial_time_s: float

    @property
    def total_time_s(self) -> float:
        return sum((slot.duration_s for slot in self.slots), 0.0)

    @property
    def gain(self) -> float:
        """Serial completion time over scheduled completion time."""
        total = self.total_time_s
        if total <= 0.0:
            return 1.0
        return self.serial_time_s / total

    @property
    def client_names(self) -> Tuple[str, ...]:
        return tuple(name for slot in self.slots for name in slot.clients)

    def __str__(self) -> str:
        lines = [f"schedule: {self.total_time_s:.6g}s "
                 f"(serial {self.serial_time_s:.6g}s, gain {self.gain:.3f})"]
        for slot in self.slots:
            lines.append(f"  [{' | '.join(slot.clients)}] "
                         f"{slot.duration_s:.6g}s ({slot.mode.value})")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (e.g. to hand to an AP controller)."""
        return {
            "serial_time_s": self.serial_time_s,
            "total_time_s": self.total_time_s,
            "gain": self.gain,
            "slots": [
                {
                    "clients": list(slot.clients),
                    "duration_s": slot.duration_s,
                    "mode": slot.mode.value,
                }
                for slot in self.slots
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Schedule":
        """Inverse of :meth:`to_dict` (derived fields are recomputed)."""
        try:
            slots = tuple(
                ScheduledSlot(
                    clients=tuple(entry["clients"]),
                    duration_s=float(entry["duration_s"]),
                    mode=PairMode(entry["mode"]),
                )
                for entry in data["slots"]
            )
            return cls(slots=slots,
                       serial_time_s=float(data["serial_time_s"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed schedule payload: {exc}") from exc


@dataclass(frozen=True, eq=False)
class BacklogCosts:
    """Technique-independent per-backlog arrays, computed once.

    Solo airtimes and the serial baseline depend only on
    ``(channel, packet_bits, rss)`` — never on the technique set or on
    ``sic_enabled`` — so one precompute serves every scheduler sharing
    those (Fig. 13 evaluates three technique sets per snapshot against
    the same backlog); a scheduler with another channel or packet size
    rejects it.  Built by :meth:`SicScheduler.precompute_costs`;
    ``eq=False`` because ndarray fields break dataclass equality.
    """

    #: The channel the airtimes were computed on.
    channel: Channel
    #: The packet size (bits) the airtimes were computed for.
    packet_bits: float
    #: Client names, in backlog order.
    names: Tuple[str, ...]
    #: RSS at the AP (watts), in backlog order.
    rss_w: np.ndarray
    #: Solo transmit times (s), bit-identical to per-client ``solo_cost``.
    solo_airtime_s: np.ndarray
    #: Built-in ``sum()`` of the solo airtimes (the no-SIC baseline).
    serial_time_s: float


@dataclass(frozen=True)
class SicScheduler:
    """Builds optimal SIC-aware upload schedules via blossom matching.

    ``techniques`` selects which Section-5 enhancements the MAC may use
    when costing a joint transmission; ``sic_enabled=False`` yields the
    no-SIC scheduler whose schedules are always fully serial (useful as
    the baseline in evaluations).
    """

    channel: Channel = field(default_factory=Channel)
    packet_bits: float = 12000.0
    techniques: TechniqueSet = TechniqueSet.NONE
    sic_enabled: bool = True

    def __post_init__(self) -> None:
        check_positive("packet_bits", self.packet_bits)

    # ------------------------------------------------------------------

    def pair_cost(self, a: UploadClient, b: UploadClient) -> PairAirtime:
        """The ``t_ij`` edge weight for one client pair."""
        return pair_airtime(self.channel, self.packet_bits,
                            a.rss_w, b.rss_w,
                            techniques=self.techniques,
                            sic_enabled=self.sic_enabled)

    def solo_cost(self, client: UploadClient) -> float:
        """The dummy-edge weight: the client's solo transmit time."""
        return solo_airtime(self.channel, self.packet_bits, client.rss_w)

    def serial_time(self, clients: Sequence[UploadClient]) -> float:
        """The no-SIC baseline: every client transmits alone, in turn."""
        return sum((self.solo_cost(c) for c in clients), 0.0)

    def precompute_costs(self,
                         clients: Sequence[UploadClient]) -> BacklogCosts:
        """Batch the technique-independent per-backlog arrays.

        The result is valid for *any* scheduler with the same
        ``channel`` and ``packet_bits``, whatever its ``techniques`` /
        ``sic_enabled``; pass it to :meth:`schedule` as ``precomputed=``
        to skip recomputing solo airtimes and the serial baseline.
        Bit-identity with the scalar path holds because
        ``solo_airtime_batch`` is pinned element-identical to
        ``solo_airtime`` and the serial sum is the same built-in
        ``sum()`` over the same floats as :meth:`serial_time`.
        """
        n = len(clients)
        rss = np.fromiter((c.rss_w for c in clients), dtype=float, count=n)
        solos = solo_airtime_batch(self.channel, self.packet_bits, rss)
        return BacklogCosts(
            channel=self.channel,
            packet_bits=self.packet_bits,
            names=tuple(c.name for c in clients),
            rss_w=rss,
            solo_airtime_s=solos,
            serial_time_s=float(sum(solos.tolist())),
        )

    def _check_precomputed(self, clients: Sequence[UploadClient],
                           precomputed: Optional[BacklogCosts],
                           ) -> Optional[BacklogCosts]:
        if precomputed is None:
            return None
        if precomputed.names != tuple(c.name for c in clients):
            raise ValueError("precomputed costs do not match the backlog")
        if precomputed.channel != self.channel or \
                precomputed.packet_bits != self.packet_bits:
            raise ValueError("precomputed costs were built for another "
                             "channel or packet size")
        return precomputed

    def _reject_zero_rate(self, clients: Sequence[UploadClient],
                          rss: np.ndarray) -> None:
        """Raise naming the first client whose solo airtime is infinite.

        Its clean Shannon rate rounds to zero, so every cost on its
        vertex is infinite and no schedule of the backlog is finite.
        """
        solos = solo_airtime_batch(self.channel, self.packet_bits, rss)
        for client, solo in zip(clients, solos.tolist()):
            if not math.isfinite(solo):
                raise ValueError(
                    f"client {client.name!r} cannot be scheduled: its "
                    f"clean rate is zero (solo airtime {solo} s)")

    def _lone_solo(self, clients: Sequence[UploadClient],
                   pre: Optional[BacklogCosts]) -> float:
        """A one-client backlog's solo airtime; a zero-rate client is
        rejected by name, as in larger backlogs."""
        solo = float(pre.solo_airtime_s[0]) if pre is not None \
            else self.solo_cost(clients[0])
        if not math.isfinite(solo):
            self._reject_zero_rate(clients, np.array([clients[0].rss_w]))
        return solo

    # ------------------------------------------------------------------

    def build_cost_graph(
            self, clients: Sequence[UploadClient],
            precomputed: Optional[BacklogCosts] = None,
    ) -> Tuple[Dict[Tuple[int, int], float], Optional[int]]:
        """The matching instance: pair costs plus an optional dummy node.

        Returns ``(costs, dummy_index)`` where ``dummy_index`` is the
        dummy vertex id for odd client counts, else ``None``.

        The full upper-triangular ``t_ij`` matrix is computed in one
        vectorised shot via :func:`pair_airtime_batch`; element for
        element it is bit-identical to the historical per-pair loop,
        which survives as :meth:`build_cost_graph_scalar` for the golden
        equivalence tests and the speedup benchmark.  A client whose
        clean rate is zero makes its pair costs infinite; it is rejected
        by name.
        """
        n = len(clients)
        pre = self._check_precomputed(clients, precomputed)
        costs: Dict[Tuple[int, int], float] = {}
        if n >= 2:
            rss = pre.rss_w if pre is not None else np.fromiter(
                (c.rss_w for c in clients), dtype=float, count=n)
            ii, jj = np.triu_indices(n, k=1)
            airtimes = pair_airtime_batch(
                self.channel, self.packet_bits, rss[ii], rss[jj],
                techniques=self.techniques, sic_enabled=self.sic_enabled)
            if not np.isfinite(airtimes).all():
                self._reject_zero_rate(clients, rss)
            costs = dict(zip(zip(ii.tolist(), jj.tolist()),
                             airtimes.tolist()))
        dummy = None
        if n % 2 == 1:
            dummy = n
            solos = pre.solo_airtime_s if pre is not None else \
                solo_airtime_batch(
                    self.channel, self.packet_bits,
                    np.fromiter((c.rss_w for c in clients), dtype=float,
                                count=n))
            for i, t in enumerate(solos.tolist()):
                costs[(i, dummy)] = t
        return costs, dummy

    def build_cost_graph_scalar(
            self, clients: Sequence[UploadClient],
    ) -> Tuple[Dict[Tuple[int, int], float], Optional[int]]:
        """Pre-vectorisation :meth:`build_cost_graph`, kept as the golden
        reference (PR-1 convention): one scalar ``pair_airtime`` call per
        pair.  Must stay behaviourally frozen."""
        n = len(clients)
        costs: Dict[Tuple[int, int], float] = {}
        for i in range(n):
            for j in range(i + 1, n):
                costs[(i, j)] = self.pair_cost(clients[i], clients[j]).airtime_s
        dummy = None
        if n % 2 == 1:
            dummy = n
            for i in range(n):
                costs[(i, dummy)] = self.solo_cost(clients[i])
        return costs, dummy

    def schedule(self, clients: Sequence[UploadClient],
                 timer: Optional[PhaseTimer] = None,
                 precomputed: Optional[BacklogCosts] = None) -> Schedule:
        """Compute the minimum-total-time schedule for the backlog.

        Pass a :class:`~repro.util.timing.PhaseTimer` to attribute the
        wall-clock time to the ``cost_build`` / ``matching`` /
        ``assembly`` phases (accumulating across calls).  ``precomputed``
        (from :meth:`precompute_costs`, possibly on another scheduler
        with the same channel and packet size) reuses the shared solo
        airtimes and serial baseline; the schedule is bit-identical with
        or without it.
        """
        if not clients:
            return Schedule(slots=(), serial_time_s=0.0)
        names = [c.name for c in clients]
        if len(set(names)) != len(names):
            raise ValueError(f"client names must be unique, got {names}")
        pre = self._check_precomputed(clients, precomputed)
        if len(clients) == 1:
            only = clients[0]
            solo = self._lone_solo(clients, pre)
            return Schedule(
                slots=(ScheduledSlot((only.name,), solo, PairMode.SERIAL),),
                serial_time_s=solo,
            )

        with maybe_phase(timer, "cost_build"):
            costs, dummy = self.build_cost_graph(clients, pre)
        n_vertices = len(clients) + (1 if dummy is not None else 0)
        with maybe_phase(timer, "matching"):
            matching = min_weight_perfect_matching(costs, n_vertices)
        with maybe_phase(timer, "assembly"):
            return self._matching_to_schedule(clients, matching, dummy, pre)

    def schedule_gain(self, clients: Sequence[UploadClient],
                      precomputed: Optional[BacklogCosts] = None,
                      cost_graph: Optional[Tuple[Dict[Tuple[int, int], float],
                                                 Optional[int]]] = None,
                      ) -> float:
        """The optimal schedule's gain, skipping slot assembly.

        Bit-identical to ``self.schedule(clients, ...).gain``: the
        chosen pairs' durations are read back from the cost graph
        (``pair_airtime_batch`` is pinned element-identical to the
        scalar ``pair_cost``) and totalled in the same slot order
        (pairs in sorted matching order, then solos) with the same
        built-in ``sum()`` as :attr:`Schedule.total_time_s`, so the
        division ``serial / total`` sees the same floats.  Trace
        evaluations (Fig. 13) call this per snapshot — they only plot
        gain CDFs, so building :class:`ScheduledSlot` tuples and
        re-costing the matched pairs for their modes is pure overhead.

        ``cost_graph`` optionally supplies the ``(costs, dummy)``
        matching instance (e.g. sliced out of a batched cost
        computation); it must equal ``build_cost_graph(clients,
        precomputed)``.  A client whose clean rate is zero is rejected
        by name, as in :meth:`build_cost_graph`.
        """
        if not clients:
            return 1.0  # Schedule((), 0.0).gain
        names = [c.name for c in clients]
        if len(set(names)) != len(names):
            raise ValueError(f"client names must be unique, got {names}")
        pre = self._check_precomputed(clients, precomputed)
        if len(clients) == 1:
            self._lone_solo(clients, pre)
            return 1.0  # solo / solo
        if pre is not None and not math.isfinite(pre.serial_time_s):
            self._reject_zero_rate(clients, pre.rss_w)
        costs, dummy = cost_graph if cost_graph is not None \
            else self.build_cost_graph(clients, pre)
        n_vertices = len(clients) + (1 if dummy is not None else 0)
        matching = min_weight_perfect_matching(costs, n_vertices)
        pair_keys: List[Tuple[int, int]] = []
        solo: List[int] = []
        # Sorted, not set order: the float total must accumulate in the
        # same canonical order as _matching_to_schedule's slots (RPR405).
        for (i, j) in sorted(matching):
            if dummy is not None and j == dummy:
                solo.append(i)
            elif dummy is not None and i == dummy:
                solo.append(j)
            else:
                pair_keys.append((i, j))
        durations = [costs[key] for key in pair_keys]
        if solo:
            solos = pre.solo_airtime_s.tolist() if pre is not None else None
            durations.extend(solos[i] if solos is not None
                             else self.solo_cost(clients[i]) for i in solo)
        # Not a += loop: sum() is compensated on Python 3.12+.
        total = sum(durations, 0.0)
        if total <= 0.0:
            return 1.0
        serial = pre.serial_time_s if pre is not None \
            else self.serial_time(clients)
        return serial / total

    def schedule_scalar(self, clients: Sequence[UploadClient]) -> Schedule:
        """The pre-fast-path scheduling pipeline, end to end: scalar cost
        graph + pure-Python blossom.  Exists so the golden tests and the
        speedup benchmark can compare against the historical behaviour
        without checking out an old commit."""
        if not clients:
            return Schedule(slots=(), serial_time_s=0.0)
        names = [c.name for c in clients]
        if len(set(names)) != len(names):
            raise ValueError(f"client names must be unique, got {names}")
        if len(clients) == 1:
            only = clients[0]
            solo = self.solo_cost(only)
            return Schedule(
                slots=(ScheduledSlot((only.name,), solo, PairMode.SERIAL),),
                serial_time_s=solo,
            )

        costs, dummy = self.build_cost_graph_scalar(clients)
        n_vertices = len(clients) + (1 if dummy is not None else 0)
        matching = min_weight_perfect_matching_scalar(costs, n_vertices)
        return self._matching_to_schedule(clients, matching, dummy)

    def pairing_to_schedule(self, clients: Sequence[UploadClient],
                            pairs: Sequence[Tuple[int, int]],
                            solo: Sequence[int] = (),
                            precomputed: Optional[BacklogCosts] = None,
                            ) -> Schedule:
        """Cost out an explicit pairing (used by baselines and tests)."""
        pre = self._check_precomputed(clients, precomputed)
        slots: List[ScheduledSlot] = []
        seen: List[int] = []
        for (i, j) in pairs:
            cost = self.pair_cost(clients[i], clients[j])
            slots.append(ScheduledSlot((clients[i].name, clients[j].name),
                                       cost.airtime_s, cost.mode))
            seen.extend((i, j))
        for i in solo:
            duration = float(pre.solo_airtime_s[i]) if pre is not None \
                else self.solo_cost(clients[i])
            slots.append(ScheduledSlot((clients[i].name,), duration,
                                       PairMode.SERIAL))
            seen.append(i)
        if sorted(seen) != list(range(len(clients))):
            raise ValueError("pairing must cover every client exactly once")
        serial = pre.serial_time_s if pre is not None \
            else self.serial_time(clients)
        return Schedule(slots=tuple(slots), serial_time_s=serial)

    def _matching_to_schedule(self, clients: Sequence[UploadClient],
                              matching: Set[Tuple[int, int]],
                              dummy: Optional[int],
                              precomputed: Optional[BacklogCosts] = None,
                              ) -> Schedule:
        pairs: List[Tuple[int, int]] = []
        solo: List[int] = []
        # Sorted, not set order: slot order (and thus the float total)
        # must be a stated contract, not a hash-table accident (RPR405).
        for (i, j) in sorted(matching):
            if dummy is not None and j == dummy:
                solo.append(i)
            elif dummy is not None and i == dummy:
                solo.append(j)
            else:
                pairs.append((i, j))
        return self.pairing_to_schedule(clients, pairs, solo, precomputed)
